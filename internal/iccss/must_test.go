package iccss

import (
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/timing"
)

// mustSchedule runs Schedule and fails the test on a degenerate-input error.
func mustSchedule(tb testing.TB, tm *timing.State, opts Options) *Result {
	tb.Helper()
	res, err := Schedule(tm, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// mustCore runs the reference core scheduler the comparison tests diff
// against, failing the test on error.
func mustCore(tb testing.TB, tm *timing.State, opts core.Options) *core.Result {
	tb.Helper()
	res, err := core.Schedule(tm, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}
