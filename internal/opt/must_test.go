package opt

import (
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/timing"
)

// mustCoreSchedule runs the scheduler that produces the targets the opt
// tests realize, failing the test on a degenerate-input error.
func mustCoreSchedule(tb testing.TB, tm *timing.State, opts core.Options) *core.Result {
	tb.Helper()
	res, err := core.Schedule(tm, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}
