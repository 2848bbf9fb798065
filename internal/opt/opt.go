package opt

import (
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// Options bundles the two §IV techniques for one optimization phase.
type Options struct {
	Reconnect ReconnectOptions
	Move      MoveOptions
}

// Result aggregates the phase's statistics.
type Result struct {
	Reconnect *ReconnectResult
	Move      *MoveResult
}

// Optimize realizes the scheduled latencies: LCB–FF reconnection first
// (§IV-A), then cell movement to refine any remaining or pre-existing early
// violations (§IV-B).
func Optimize(tm *timing.State, targets map[netlist.CellID]float64, o Options) *Result {
	res := &Result{}
	res.Reconnect = Reconnect(tm, targets, o.Reconnect)
	res.Move = MoveCells(tm, o.Move)
	return res
}
