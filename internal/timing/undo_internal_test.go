package timing

import (
	"math"
	"testing"

	"iterskew/internal/geom"
)

// TestRollbackRestoresCaches: Rollback also restores the two caches a trial
// can fill in passing — a net load that was stale before the checkpoint (a
// recompiled snapshot can leave one) and is read during the trial, and the
// clock-input cache, which a fresh state fills on its first structural
// Update.
func TestRollbackRestoresCaches(t *testing.T) {
	f := newFixture(t)
	tm, d := f.t, f.d
	n4 := d.Pins[d.OutPin(f.gB)].Net
	tm.netDirty[n4] = true
	load := tm.netLoad[n4]

	// Raising ffA's latency re-times ffA.Q and gB's output, reading n4.
	tm.Checkpoint()
	tm.SetExtraLatency(f.ffA, 10)
	tm.Update()
	if tm.netDirty[n4] {
		t.Fatal("trial did not read the stale load")
	}
	tm.Rollback()
	if !tm.netDirty[n4] || math.Float64bits(tm.netLoad[n4]) != math.Float64bits(load) {
		t.Errorf("stale load not restored: dirty=%v load=%v, want dirty=true load=%v", tm.netDirty[n4], tm.netLoad[n4], load)
	}

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
