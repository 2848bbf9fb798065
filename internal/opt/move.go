package opt

import (
	"time"

	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// MoveOptions tunes the §IV-B cell-movement refinement.
type MoveOptions struct {
	// StepFractions are the trial displacement radii as fractions of the
	// design's MaxDisp, tried in order per the paper ("starting at 0.1 times
	// the maximum displacement constraint and gradually increasing").
	StepFractions []float64
	// MaxPasses bounds the sweeps over the violating endpoints (default 4).
	MaxPasses int
}

func (o *MoveOptions) defaults() {
	if len(o.StepFractions) == 0 {
		o.StepFractions = []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	}
	if o.MaxPasses == 0 {
		o.MaxPasses = 4
	}
}

// MoveResult reports what the movement pass did.
type MoveResult struct {
	Moves    int
	Reverted int
	Passes   int
	Elapsed  time.Duration
}

// MoveCells refines early violations by shifting movable cells on violating
// paths (§IV-B). Each candidate cell is tried in the four cardinal
// directions with a growing step; a move is kept when it lengthens the
// violating path's min arrival and late WNS stays at or above min(0, late
// WNS before the move): a hold fix never buys a new setup violation nor
// deepens an existing one. A move whose changed late slacks all stay at or
// above −eps passes that guard without reading it; only a cell with a move
// that could fail it pays one endpoint scan, at that move's checkpoint
// (see wnsGuard).
func MoveCells(tm *timing.State, o MoveOptions) *MoveResult {
	return moveCells(tm, o, tryMoveCell)
}

// moveTrial tries the moves of cell c on behalf of violating endpoint e and
// reports whether one was kept.
type moveTrial func(tm *timing.State, c netlist.CellID, e timing.EndpointID,
	dirs []geom.Point, o MoveOptions, res *MoveResult) bool

// moveCells is MoveCells with the per-cell decision as a parameter, so a
// test can run the same passes over another decision rule.
func moveCells(tm *timing.State, o MoveOptions, try moveTrial) *MoveResult {
	start := time.Now()
	o.defaults()
	d := tm.D
	res := &MoveResult{}

	dirs := []geom.Point{{X: 0, Y: 1}, {X: 0, Y: -1}, {X: 1, Y: 0}, {X: -1, Y: 0}}

	var viol []timing.EndpointID
	for pass := 0; pass < o.MaxPasses; pass++ {
		viol = tm.ViolatedEndpoints(timing.Early, viol[:0])
		if len(viol) == 0 {
			break
		}
		res.Passes++
		improvedAny := false

		for _, e := range viol {
			if tm.EarlySlack(e) >= -eps {
				continue // fixed by an earlier move this pass
			}
			path := tm.WorstPath(e, timing.Early)
			if path == nil {
				continue
			}
			// Movable (combinational, non-fixed) cells along the path.
			seen := map[netlist.CellID]bool{}
			for _, p := range path {
				c := d.Pins[p].Cell
				if seen[c] || d.Cells[c].Fixed || d.Cells[c].Type.Kind != netlist.KindComb {
					continue
				}
				seen[c] = true
				if try(tm, c, e, dirs, o, res) {
					improvedAny = true
					// The paper halts further movement of a cell once it
					// achieves a longer arrival; and if the endpoint is
					// fixed we stop working on this path.
					if tm.EarlySlack(e) >= -eps {
						break
					}
				}
			}
		}
		if !improvedAny {
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// tryMoveCell attempts the growing-step cardinal moves for one cell, each as
// a timer trial; it returns true if a move was kept.
func tryMoveCell(tm *timing.State, c netlist.CellID, e timing.EndpointID,
	dirs []geom.Point, o MoveOptions, res *MoveResult) bool {

	d := tm.D
	if d.MaxDisp <= 0 {
		return false
	}
	origin := d.Cells[c].Pos
	before := tm.EarlySlack(e)
	guard := wnsGuard{m: timing.Late}

	for _, frac := range o.StepFractions {
		step := frac * d.MaxDisp
		for _, dir := range dirs {
			target := origin.Add(geom.Pt(dir.X*step, dir.Y*step))
			if !d.MoveCell(c, target) {
				continue // fixed, out of die, or beyond displacement budget
			}
			tm.Checkpoint()
			tm.DirtyCell(c)
			tm.Update()

			if tm.EarlySlack(e) > before+eps && guard.holds(tm) {
				tm.Commit()
				res.Moves++
				return true // halt further movement of this cell (§IV-B)
			}
			d.MoveCell(c, origin)
			tm.Rollback()
			res.Reverted++
		}
	}
	return false
}

// wnsGuard decides, for the trials of one cell, whether a trial kept mode
// m's WNS at or above min(0, WNS at its checkpoint) − eps. Only the
// endpoints SlackDelta reports changed, and the rest sit at or above that
// WNS, so the guard holds exactly when the worst changed slack does. A worst
// of at least −eps passes any floor ≤ 0 (WNSTNS's WNS is at most 0), so the
// floor is read (CheckpointWNS, an endpoint scan) only for a trial that
// could fail it, and then once: each trial of the cell starts from the same
// state.
type wnsGuard struct {
	m    timing.Mode
	wns  float64
	read bool
}

// holds reports whether the open trial passes the guard.
func (g *wnsGuard) holds(tm *timing.State) bool {
	_, worst := tm.SlackDelta()
	if worst[g.m] >= -eps {
		return true
	}
	if !g.read {
		g.wns, g.read = tm.CheckpointWNS(g.m), true
	}
	return worst[g.m] >= g.wns-eps
}
