package opt

import (
	"math"
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/core"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// TestReconnectGuardMonotone: the per-mode TNS guard guarantees neither
// corner's TNS ever ends worse than before the pass, on the grid design under
// a late schedule and on generated designs under early and late ones. On the
// generated designs, cutting either half of the guard lets a pass lower that
// mode's TNS.
func TestReconnectGuardMonotone(t *testing.T) {
	check := func(name string, tm *timing.State, mode timing.Mode) {
		res := mustCoreSchedule(t, tm, core.Options{Mode: mode})

		// Snapshot the PHYSICAL baseline (without predictive latencies).
		for _, ff := range tm.D.FFs {
			tm.SetExtraLatency(ff, 0)
		}
		tm.Update()
		_, te0 := tm.WNSTNS(timing.Early)
		_, tl0 := tm.WNSTNS(timing.Late)

		// Re-apply the schedule and run the pass (Reconnect clears extras
		// itself).
		for ff, l := range res.Target {
			tm.SetExtraLatency(ff, l)
		}
		tm.Update()
		r := Reconnect(tm, res.Target, ReconnectOptions{})

		_, te1 := tm.WNSTNS(timing.Early)
		_, tl1 := tm.WNSTNS(timing.Late)
		if te1 < te0-1e-6 {
			t.Errorf("%s %v: early TNS degraded: %v -> %v (reverted=%d)", name, mode, te0, te1, r.Reverted)
		}
		if tl1 < tl0-1e-6 {
			t.Errorf("%s %v: late TNS degraded: %v -> %v (reverted=%d)", name, mode, tl0, tl1, r.Reverted)
		}
	}

	d, _ := buildGrid(t, 300, 20, 24)
	check("grid", newTimer(t, d), timing.Late)
	for _, name := range []string{"superblue1", "superblue7"} {
		p, err := bench.Superblue(name, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		d, err := bench.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []timing.Mode{timing.Early, timing.Late} {
			check(name, newTimer(t, d.Clone()), mode)
		}
	}
}

// TestReconnectMinTargetFilter: tiny targets are skipped entirely.
func TestReconnectMinTargetFilter(t *testing.T) {
	d, _ := buildGrid(t, 300, 20, 24)
	tm := newTimer(t, d)
	targets := map[netlist.CellID]float64{d.FFs[0]: 0.5, d.FFs[1]: 60}
	r := Reconnect(tm, targets, ReconnectOptions{MinTarget: 1})
	if r.Attempted != 1 {
		t.Errorf("attempted %d targets, want 1 (tiny one filtered)", r.Attempted)
	}
}

// TestMoveCellsCustomSteps: a single huge step fraction is honored.
func TestMoveCellsCustomSteps(t *testing.T) {
	d, _ := buildGrid(t, 300, 20, 24)
	tm := newTimer(t, d)
	res := MoveCells(tm, MoveOptions{StepFractions: []float64{1.0}, MaxPasses: 1})
	if res.Passes > 1 {
		t.Errorf("passes = %d, want <= 1", res.Passes)
	}
	// Displacement constraint always holds.
	for i := range d.Cells {
		c := netlist.CellID(i)
		if d.Displacement(c) > d.MaxDisp+1e-9 {
			t.Errorf("cell %d displaced beyond budget", i)
		}
	}
}

// guardTally counts the trials whose decision turned on the WNS guard: the
// objective improved and the worst changed slack in the guarded mode fell
// below −eps, so the on-demand guard reads the WNS at the checkpoint.
type guardTally struct {
	passed, failed int
}

func (g *guardTally) note(improved bool, worst, guard float64) {
	if !improved || worst >= -eps {
		return
	}
	if worst >= guard-eps {
		g.passed++
	} else {
		g.failed++
	}
}

// eagerTryMoveCell is tryMoveCell with its guard taken up front, one
// WNSTNS(Late) scan per cell: the rule the on-demand guard must reproduce.
func eagerTryMoveCell(tally *guardTally) moveTrial {
	return func(tm *timing.State, c netlist.CellID, e timing.EndpointID,
		dirs []geom.Point, o MoveOptions, res *MoveResult) bool {

		d := tm.D
		if d.MaxDisp <= 0 {
			return false
		}
		origin := d.Cells[c].Pos
		before := tm.EarlySlack(e)
		guard, _ := tm.WNSTNS(timing.Late)

		for _, frac := range o.StepFractions {
			step := frac * d.MaxDisp
			for _, dir := range dirs {
				target := origin.Add(geom.Pt(dir.X*step, dir.Y*step))
				if !d.MoveCell(c, target) {
					continue
				}
				tm.Checkpoint()
				tm.DirtyCell(c)
				tm.Update()

				_, worst := tm.SlackDelta()
				improved := tm.EarlySlack(e) > before+eps
				tally.note(improved, worst[timing.Late], guard)
				if improved && worst[timing.Late] >= guard-eps {
					tm.Commit()
					res.Moves++
					return true
				}
				d.MoveCell(c, origin)
				tm.Rollback()
				res.Reverted++
			}
		}
		return false
	}
}

// eagerTryUpsize is tryUpsize with its guard taken up front, one
// WNSTNS(Early) scan per trial.
func eagerTryUpsize(tally *guardTally) upsizeTrial {
	return func(tm *timing.State, c netlist.CellID, e timing.EndpointID,
		o ResizeOptions, res *ResizeResult) bool {

		d := tm.D
		cur := d.Cells[c].Type
		next := o.Lib.Upsize(cur)
		if next == nil {
			return false
		}
		before := tm.LateSlack(e)
		guard, _ := tm.WNSTNS(timing.Early)

		if !d.SwapType(c, next) {
			return false
		}
		tm.Checkpoint()
		tm.DirtyCell(c)
		tm.Update()

		_, worst := tm.SlackDelta()
		improved := tm.LateSlack(e) > before+eps
		tally.note(improved, worst[timing.Early], guard)
		if improved && worst[timing.Early] >= guard-eps {
			tm.Commit()
			res.Upsized++
			return true
		}
		d.SwapType(c, cur)
		tm.Rollback()
		res.Reverted++
		return false
	}
}

// TestOnDemandGuardMatchesEager: through RunFlow(Ours)'s stages and a
// sizing pass, MoveCells and ResizeCells decide every trial as they did when
// each cell's guard was one WNS scan taken up front, on generated designs
// with late violations and on one without (its period stretched, so the
// late guard is 0). Some move trials must pass the late guard from below
// −eps, and some upsize trials must fail the early guard.
func TestOnDemandGuardMatchesEager(t *testing.T) {
	type run struct {
		move   MoveResult
		resize ResizeResult
		qor    [2][2]uint64 // WNS and TNS bits, by mode
	}
	do := func(d *netlist.Design, move moveTrial, resize upsizeTrial) run {
		tm := newTimer(t, d)
		var r run
		for _, m := range []timing.Mode{timing.Early, timing.Late} {
			res := mustCoreSchedule(t, tm, core.Options{Mode: m})
			Reconnect(tm, res.Target, ReconnectOptions{})
			mr := moveCells(tm, MoveOptions{}, move)
			r.move.Moves += mr.Moves
			r.move.Reverted += mr.Reverted
			r.move.Passes += mr.Passes
		}
		r.resize = *resizeCells(tm, ResizeOptions{}, resize)
		r.resize.Elapsed = 0
		for _, m := range []timing.Mode{timing.Early, timing.Late} {
			wns, tns := tm.WNSTNS(m)
			r.qor[m] = [2]uint64{math.Float64bits(wns), math.Float64bits(tns)}
		}
		return r
	}
	var moves, upsizes guardTally
	for _, tc := range []struct {
		name    string
		stretch float64 // period multiplier
	}{
		{"superblue1", 1}, {"superblue3", 1}, {"superblue7", 1}, {"superblue18", 4},
	} {
		p, err := bench.Superblue(tc.name, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		d, err := bench.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		d.Period *= tc.stretch
		if tc.stretch > 1 {
			if wns, _ := newTimer(t, d).WNSTNS(timing.Late); wns != 0 {
				t.Fatalf("%s: stretched period leaves late WNS %v", tc.name, wns)
			}
		}
		want := do(d.Clone(), eagerTryMoveCell(&moves), eagerTryUpsize(&upsizes))
		got := do(d.Clone(), tryMoveCell, tryUpsize)
		if got != want {
			t.Errorf("%s: on demand %+v, eager %+v", tc.name, got, want)
		}
	}
	if moves.passed == 0 || upsizes.failed == 0 {
		t.Errorf("no trial turned on a guard: moves %+v, upsizes %+v", moves, upsizes)
	}
}
