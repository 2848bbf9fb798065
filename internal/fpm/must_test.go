package fpm

import (
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/timing"
)

// mustCoreSchedule runs the core scheduler the FPM comparison diffs against,
// failing the test on a degenerate-input error.
func mustCoreSchedule(tb testing.TB, tm *timing.State, opts core.Options) *core.Result {
	tb.Helper()
	res, err := core.Schedule(tm, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// mustSchedule runs the FPM scheduler, failing the test on a
// degenerate-input error.
func mustSchedule(tb testing.TB, tm *timing.State, opts Options) *Result {
	tb.Helper()
	res, err := Schedule(tm, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}
