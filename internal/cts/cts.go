// Package cts implements the paper's stated future-work direction: using
// the fast CSS schedule to GUIDE clock tree synthesis. Where internal/opt
// performs an incremental ECO (move individual flip-flops between existing
// LCBs, at most one reconnection per LCB), this package re-clusters the
// whole flip-flop population onto the LCBs so that each flip-flop's clock
// branch realizes its scheduled latency:
//
//	minimize  Σ_v  |l_v − l_v*|  +  λ · Σ_v dist(v, LCB(v))
//	s.t.      fanout(LCB) ≤ limit
//
// solved greedily (largest targets first, then a refinement pass), with
// latencies predicted through the same Elmore clock model the timer uses.
package cts

import (
	"math"
	"sort"
	"time"

	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// Options tunes the guidance.
type Options struct {
	// WireWeight is λ above: ps of latency error traded per DBU of extra
	// clock wire (default 0.02 — latency fidelity dominates).
	WireWeight float64
	// MoveCost biases flip-flops toward their current LCB (ps of predicted
	// latency error a move must save to be worthwhile; default 8). It keeps
	// untargeted flip-flops from churning on estimate noise.
	MoveCost float64
	// Refine runs a second pass revisiting the worst-error flip-flops with
	// measured (not predicted) latencies (default true; set SkipRefine to
	// disable).
	SkipRefine bool
}

// Result reports the re-clustering outcome. The Err sums run over the
// TARGETED flip-flops (schedule-realization fidelity); untargeted flip-flops
// only need to stay where they are.
type Result struct {
	Moved     int     // flip-flops whose LCB changed
	ErrAbs    float64 // Σ|achieved − desired| over targeted FFs after synthesis, ps
	ErrAbsIn  float64 // the same sum before synthesis (= Σ|targets|)
	MaxFanout int
	Elapsed   time.Duration
}

// GuideTree re-clusters every flip-flop onto an LCB according to the
// scheduled targets (flip-flops without a target keep their current latency
// as the goal). Predictive latencies are cleared; the timer is left fully
// updated.
func GuideTree(tm *timing.Timer, targets map[netlist.CellID]float64, o Options) *Result {
	start := time.Now()
	d := tm.D
	res := &Result{}
	if len(d.LCBs) == 0 || len(d.FFs) == 0 {
		return res
	}
	if o.WireWeight == 0 {
		o.WireWeight = 0.02
	}
	if o.MoveCost == 0 {
		o.MoveCost = 8
	}
	capLimit := d.LCBMaxFanout
	if capLimit <= 0 {
		capLimit = len(d.FFs)
	}

	// Desired absolute latency per flip-flop, captured before any change.
	desired := make(map[netlist.CellID]float64, len(d.FFs))
	for _, ff := range d.FFs {
		desired[ff] = tm.BaseLatency(ff) + targets[ff]
		if targets[ff] != 0 {
			res.ErrAbsIn += math.Abs(targets[ff])
		}
	}

	// Per-LCB output-arrival estimate under the average expected load.
	m := tm.M
	rootNet := d.Pins[d.OutPin(d.ClockRoot)].Net
	rootDelay := m.CellDelay(d.Cells[d.ClockRoot].Type, m.NetLoad(d, rootNet))
	balanced := 0.0
	for _, s := range d.Nets[rootNet].Sinks {
		if w := m.SinkWireDelay(d, rootNet, s); w > balanced {
			balanced = w
		}
	}
	avgFan := float64(len(d.FFs)) / float64(len(d.LCBs))
	ckCap := d.Cells[d.FFs[0]].Type.InputCap
	lcbOutEst := make([]float64, len(d.LCBs))
	for i, l := range d.LCBs {
		estLoad := avgFan * (ckCap + m.WireCap(200))
		lcbOutEst[i] = rootDelay + balanced + m.CellDelay(d.Cells[l].Type, estLoad)
	}

	// Greedy assignment, largest targets first.
	order := append([]netlist.CellID(nil), d.FFs...)
	sort.Slice(order, func(i, j int) bool {
		if targets[order[i]] != targets[order[j]] {
			return targets[order[i]] > targets[order[j]]
		}
		return order[i] < order[j]
	})
	load := make([]int, len(d.LCBs))
	assign := make([]int, len(order)) // LCB index per order entry
	for k, ff := range order {
		pos := d.Cells[ff].Pos
		bestLCB, bestCost := -1, math.Inf(1)
		cur := d.LCBofFF(ff)
		for i, l := range d.LCBs {
			if load[i] >= capLimit {
				continue
			}
			dist := pos.Manhattan(d.Cells[l].Pos)
			pred := lcbOutEst[i] + m.BranchLatency(dist, ckCap, d.Cells[l].Type.DriveRes)
			cost := math.Abs(pred-desired[ff]) + o.WireWeight*dist
			if l != cur {
				cost += o.MoveCost
			}
			if cost < bestCost {
				bestCost = cost
				bestLCB = i
			}
		}
		if bestLCB < 0 {
			bestLCB = 0 // capacity exhausted everywhere: overflow onto LCB 0
		}
		assign[k] = bestLCB
		load[bestLCB]++
	}

	// Apply the assignment in the greedy's order, so every LCB output net
	// lists its clock sinks (and sums its load) the same way on every run.
	for k, ff := range order {
		lcb := d.LCBs[assign[k]]
		if d.LCBofFF(ff) == lcb {
			continue
		}
		net := d.Pins[d.LCBOut(lcb)].Net
		if net == netlist.NoNet {
			net = d.Connect("cts_"+d.Cells[lcb].Name, d.LCBOut(lcb))
			d.Nets[net].IsClock = true
		}
		d.MovePinToNet(d.FFClock(ff), net)
		res.Moved++
	}
	for _, ff := range d.FFs {
		tm.SetExtraLatency(ff, 0)
	}
	tm.FullUpdate()

	// Refinement: revisit the worst offenders with measured latencies.
	if !o.SkipRefine {
		type errFF struct {
			ff  netlist.CellID
			err float64
		}
		var worst []errFF
		for _, ff := range d.FFs {
			if targets[ff] == 0 {
				continue // refinement focuses on schedule realization
			}
			if e := math.Abs(tm.BaseLatency(ff) - desired[ff]); e > 1 {
				worst = append(worst, errFF{ff, e})
			}
		}
		sort.Slice(worst, func(i, j int) bool {
			if worst[i].err != worst[j].err {
				return worst[i].err > worst[j].err
			}
			return worst[i].ff < worst[j].ff
		})
		for _, wf := range worst {
			ff := wf.ff
			cur := d.LCBofFF(ff)
			curErr := math.Abs(tm.BaseLatency(ff) - desired[ff])
			pos := d.Cells[ff].Pos
			bestLCB := netlist.NoCell
			bestErr := curErr
			for _, l := range d.LCBs {
				if l == cur || d.LCBFanout(l) >= capLimit {
					continue
				}
				outNet := d.Pins[d.LCBOut(l)].Net
				var outAt float64
				if outNet != netlist.NoNet && len(d.Nets[outNet].Sinks) > 0 {
					s := d.Nets[outNet].Sinks[0]
					outAt = tm.BaseLatency(d.Pins[s].Cell) - m.SinkWireDelay(d, outNet, s)
				} else {
					outAt = rootDelay + balanced + m.CellDelay(d.Cells[l].Type, 0)
				}
				dist := pos.Manhattan(d.Cells[l].Pos)
				pred := outAt + m.BranchLatency(dist, ckCap, d.Cells[l].Type.DriveRes)
				if e := math.Abs(pred - desired[ff]); e < bestErr-1e-9 {
					bestErr = e
					bestLCB = l
				}
			}
			if bestLCB == netlist.NoCell {
				continue
			}
			tm.Checkpoint()
			net := d.Pins[d.LCBOut(bestLCB)].Net
			d.MovePinToNet(d.FFClock(ff), net)
			tm.DirtyCell(ff)
			tm.DirtyCell(cur)
			tm.DirtyCell(bestLCB)
			tm.Update()
			if math.Abs(tm.BaseLatency(ff)-desired[ff]) > curErr+1e-9 {
				// Worse in reality: revert.
				d.MovePinToNet(d.FFClock(ff), d.Pins[d.LCBOut(cur)].Net)
				tm.Rollback()
			} else {
				tm.Commit()
				res.Moved++
			}
		}
	}

	for _, ff := range d.FFs {
		if targets[ff] != 0 {
			res.ErrAbs += math.Abs(tm.BaseLatency(ff) - desired[ff])
		}
	}
	for _, l := range d.LCBs {
		if f := d.LCBFanout(l); f > res.MaxFanout {
			res.MaxFanout = f
		}
	}
	res.Elapsed = time.Since(start)
	return res
}
