package iterskew_test

import (
	"testing"

	"iterskew"
	"iterskew/internal/core"
	"iterskew/internal/timing"
)

// Scheduling helpers: none of the designs built by these tests are
// degenerate, so a scheduler error is a test failure, not a condition to
// handle.

func mustScheduleSkew(tb testing.TB, tm *iterskew.Timer, o iterskew.ScheduleOptions) *iterskew.ScheduleResult {
	tb.Helper()
	res, err := iterskew.ScheduleSkew(tm, o)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func mustScheduleICCSS(tb testing.TB, tm *iterskew.Timer, o iterskew.ICCSSOptions) *iterskew.ICCSSResult {
	tb.Helper()
	res, err := iterskew.ScheduleICCSS(tm, o)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func mustCoreSchedule(tb testing.TB, tm *timing.State, o core.Options) *core.Result {
	tb.Helper()
	res, err := core.Schedule(tm, o)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func mustScheduleFPM(tb testing.TB, tm *iterskew.Timer, o iterskew.FPMOptions) *iterskew.FPMResult {
	tb.Helper()
	res, err := iterskew.ScheduleFPM(tm, o)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}
