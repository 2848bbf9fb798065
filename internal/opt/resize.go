package opt

import (
	"time"

	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// Gate sizing — the "logic path optimization" the paper names as the other
// integration target for its fast CSS. Upsizing a gate on a setup-critical
// path lowers its drive resistance (faster under load) at the cost of a
// larger input load on its predecessor; the pass accepts a swap only when
// the endpoint's measured slack improves and early WNS does not fall below
// its value before the swap.

// ResizeOptions tunes the sizing pass.
type ResizeOptions struct {
	// MaxPasses bounds the sweeps over violating endpoints (default 3).
	MaxPasses int
	// Lib resolves drive-strength variants (default netlist.StdLib()).
	Lib *netlist.Library
}

// ResizeResult reports the sizing outcome.
type ResizeResult struct {
	Upsized  int
	Reverted int
	Passes   int
	Elapsed  time.Duration
}

// ResizeCells walks the worst late paths and upsizes their gates while that
// measurably improves the violating endpoint without hurting hold timing.
func ResizeCells(tm *timing.State, o ResizeOptions) *ResizeResult {
	return resizeCells(tm, o, tryUpsize)
}

// upsizeTrial tries one upsize of cell c on behalf of violating endpoint e
// and reports whether it was kept.
type upsizeTrial func(tm *timing.State, c netlist.CellID, e timing.EndpointID,
	o ResizeOptions, res *ResizeResult) bool

// resizeCells is ResizeCells with the per-cell decision as a parameter, so a
// test can run the same passes over another decision rule.
func resizeCells(tm *timing.State, o ResizeOptions, try upsizeTrial) *ResizeResult {
	start := time.Now()
	if o.MaxPasses == 0 {
		o.MaxPasses = 3
	}
	if o.Lib == nil {
		o.Lib = netlist.StdLib()
	}
	d := tm.D
	res := &ResizeResult{}

	var viol []timing.EndpointID
	for pass := 0; pass < o.MaxPasses; pass++ {
		viol = tm.ViolatedEndpoints(timing.Late, viol[:0])
		if len(viol) == 0 {
			break
		}
		res.Passes++
		improved := false
		for _, e := range viol {
			if tm.LateSlack(e) >= -eps {
				continue
			}
			path := tm.WorstPath(e, timing.Late)
			seen := map[netlist.CellID]bool{}
			for _, p := range path {
				c := d.Pins[p].Cell
				if seen[c] || d.Cells[c].Type.Kind != netlist.KindComb {
					continue
				}
				seen[c] = true
				if try(tm, c, e, o, res) {
					improved = true
					if tm.LateSlack(e) >= -eps {
						break
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res
}

// tryUpsize attempts one drive-strength step on a cell as a timer trial: it
// keeps the swap only if the endpoint's late slack improves and early WNS
// does not drop below min(0, early WNS before the swap); otherwise it swaps
// back and rolls the timer back. Like tryMoveCell's, the guard is read,
// with one endpoint scan, only when a changed early slack falls below −eps.
func tryUpsize(tm *timing.State, c netlist.CellID, e timing.EndpointID,
	o ResizeOptions, res *ResizeResult) bool {

	d := tm.D
	cur := d.Cells[c].Type
	next := o.Lib.Upsize(cur)
	if next == nil {
		return false
	}
	before := tm.LateSlack(e)

	if !d.SwapType(c, next) {
		return false
	}
	tm.Checkpoint()
	tm.DirtyCell(c)
	tm.Update()

	guard := wnsGuard{m: timing.Early}
	if tm.LateSlack(e) > before+eps && guard.holds(tm) {
		tm.Commit()
		res.Upsized++
		return true
	}
	d.SwapType(c, cur)
	tm.Rollback()
	res.Reverted++
	return false
}
