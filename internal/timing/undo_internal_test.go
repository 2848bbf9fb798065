package timing

import (
	"testing"

	"iterskew/internal/geom"
)

// TestRollbackRestoresCaches: Rollback also restores the clock-input cache,
// which a fresh state fills on its first structural Update.
func TestRollbackRestoresCaches(t *testing.T) {
	f := newFixture(t)
	tm, d := f.t, f.d
	if tm.clkInOK {
		t.Fatal("fresh state has a clock-input cache")
	}
	tm.Checkpoint()
	if !d.MoveCell(f.gA, geom.Pt(40, 0)) {
		t.Fatal("move rejected")
	}
	tm.DirtyCell(f.gA)
	tm.Update()
	if !tm.clkInOK {
		t.Fatal("structural Update did not fill the clock-input cache")
	}
	d.MoveCell(f.gA, geom.Pt(0, 0))
	tm.Rollback()
	if tm.clkInOK {
		t.Error("Rollback kept the clock-input cache filled during the trial")
	}
}
