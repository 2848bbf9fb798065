package core

import (
	"testing"

	"iterskew/internal/timing"
)

// mustSchedule runs Schedule and fails the test on a degenerate-input error
// (none of the generated test designs are degenerate).
func mustSchedule(tb testing.TB, tm *timing.State, opts Options) *Result {
	tb.Helper()
	res, err := Schedule(tm, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}
