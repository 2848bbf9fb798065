package bench

import (
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/timing"
)

// mustCoreSchedule schedules a generated design, failing the test on a
// degenerate-input error.
func mustCoreSchedule(tb testing.TB, tm *timing.State, opts core.Options) *core.Result {
	tb.Helper()
	res, err := core.Schedule(tm, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}
