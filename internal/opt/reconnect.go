// Package opt implements the paper's §IV slack optimization techniques,
// which realize the target latencies computed by clock skew scheduling:
//
//   - LCB–FF reconnection (§IV-A): move a flip-flop's clock pin to an LCB
//     whose distance produces the scheduled latency (Eq 15–16), respecting
//     the LCB fanout limit and the one-reconnection-per-LCB rule;
//   - cell movement (§IV-B): nudge movable cells on early-violating paths
//     north/south/east/west with a growing step to lengthen the short path.
package opt

import (
	"math"
	"sort"
	"time"

	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

const eps = 1e-6

// ReconnectOptions tunes §IV-A.
type ReconnectOptions struct {
	// MaxCandidates is the candidate-set size drawn from the distance
	// matrix (default 8).
	MaxCandidates int
	// MaxPerLCB caps how many reconnections an LCB may receive; the paper
	// prohibits reconnecting to an LCB "that has already undergone
	// reconnection", i.e. 1 (the default).
	MaxPerLCB int
	// ImpactWeight scales the cost of latency shifts induced on the other
	// flip-flops of the affected LCBs (default 1).
	ImpactWeight float64
	// MinTarget skips targets smaller than this (not worth a reconnection;
	// default 1 ps).
	MinTarget float64
}

func (o *ReconnectOptions) defaults() {
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 8
	}
	if o.MaxPerLCB == 0 {
		o.MaxPerLCB = 1
	}
	if o.ImpactWeight == 0 {
		o.ImpactWeight = 1
	}
	if o.MinTarget == 0 {
		o.MinTarget = 1
	}
}

// ReconnectResult reports what the reconnection pass did.
type ReconnectResult struct {
	Attempted   int
	Reconnected int
	Reverted    int // applied but rolled back by the TNS guard
	// ResidualAbs is the summed |achieved − desired| latency error over all
	// targeted flip-flops after the pass.
	ResidualAbs float64
	Elapsed     time.Duration
}

// Reconnect realizes the scheduled latencies physically: for each targeted
// flip-flop (largest target first) it picks the LCB whose reconnection cost
// (Eq 15 plus induced impact) is lowest, within the fanout and
// once-per-LCB constraints. Predictive latencies are cleared up front, so
// every decision is evaluated against physical reality. Each reconnection
// is a timer trial: it is kept unless its slack delta shows it lowered
// either mode's TNS, in which case the clock pin goes back and the timer
// rolls back. Flip-flops whose clock pin is on no net have no LCB to leave
// and are skipped.
//
// A pass with more targets than the design has LCBs decides its trials on
// the timer's launch→capture model: a trial re-times only the clock
// (RetimeClock) and reads the model's slack delta, and one Update after the
// last trial propagates every kept one. Since a trial re-times every
// flip-flop of two LCBs, such a pass would otherwise propagate the average
// flip-flop's fanout cone more than twice, while the model costs about one
// two-mode walk of every fanin cone and one propagation. A smaller pass
// runs Update and SlackDelta per trial.
func Reconnect(tm *timing.State, targets map[netlist.CellID]float64, o ReconnectOptions) *ReconnectResult {
	start := time.Now()
	o.defaults()
	d := tm.D
	res := &ReconnectResult{}

	// Desired absolute latency per FF, captured before any change.
	desired := map[netlist.CellID]float64{}
	order := make([]netlist.CellID, 0, len(targets))
	for ff, l := range targets {
		if l < o.MinTarget || d.LCBofFF(ff) == netlist.NoCell {
			continue
		}
		desired[ff] = tm.BaseLatency(ff) + l
		order = append(order, ff)
	}
	sort.Slice(order, func(i, j int) bool {
		if targets[order[i]] != targets[order[j]] {
			return targets[order[i]] > targets[order[j]]
		}
		return order[i] < order[j]
	})

	// Physical reality from here on: drop all predictive latencies.
	for _, ff := range d.FFs {
		tm.SetExtraLatency(ff, 0)
	}
	tm.Update()
	var model *timing.LaunchModel
	if useModel(len(order), len(d.LCBs)) {
		model = tm.LaunchModel()
	}

	lcbUsed := map[netlist.CellID]int{}
	ckType := func(ff netlist.CellID) float64 { return d.Cells[ff].Type.InputCap }
	cands := make([]cand, 0, o.MaxCandidates)

	for _, ff := range order {
		res.Attempted++
		target := targets[ff]
		ck := d.FFClock(ff)
		cur := d.LCBofFF(ff)
		ffPos := d.Cells[ff].Pos

		lcbDrive := d.Cells[d.LCBs[0]].Type.DriveRes
		distStar := tm.M.TargetDistance(target, ckType(ff), lcbDrive)

		// Candidate set from the distance matrix: the MaxCandidates LCBs
		// whose distance is closest to Dist*.
		cands = cands[:0]
		for _, lcb := range d.LCBs {
			if lcb == cur {
				continue
			}
			if d.LCBMaxFanout > 0 && d.LCBFanout(lcb) >= d.LCBMaxFanout {
				continue
			}
			if lcbUsed[lcb] >= o.MaxPerLCB {
				continue
			}
			dist := ffPos.Manhattan(d.Cells[lcb].Pos)
			cands = keepBest(cands, cand{lcb: lcb, off: math.Abs(dist - distStar)}, o.MaxCandidates)
		}

		keepCost := math.Abs(tm.BaseLatency(ff) - desired[ff])
		bestCost := keepCost
		bestLCB := netlist.NoCell
		for _, c := range cands {
			pred, impact := predictReconnect(tm, ff, cur, c.lcb)
			cost := math.Abs(pred-desired[ff]) + o.ImpactWeight*impact
			if cost < bestCost-eps {
				bestCost = cost
				bestLCB = c.lcb
			}
		}
		if bestLCB == netlist.NoCell {
			res.ResidualAbs += keepCost
			continue
		}

		tm.Checkpoint()
		net := d.Pins[d.LCBOut(bestLCB)].Net
		d.MovePinToNet(ck, net)
		tm.DirtyCell(ff)
		tm.DirtyCell(cur)
		tm.DirtyCell(bestLCB)
		var dTNS [2]float64
		if model != nil {
			tm.RetimeClock()
			dTNS = model.SlackDelta()
		} else {
			tm.Update()
			dTNS, _ = tm.SlackDelta()
		}
		if dTNS[timing.Early] < -eps || dTNS[timing.Late] < -eps {
			// The schedule said this latency helps, but physically the move
			// hurt one corner (granularity overshoot, co-FF impact): the
			// stage discipline of §V — improve one violation type under the
			// other's constraints — demands a rollback.
			d.MovePinToNet(ck, d.Pins[d.LCBOut(cur)].Net)
			tm.Rollback()
			res.Reverted++
			res.ResidualAbs += math.Abs(tm.BaseLatency(ff) - desired[ff])
			continue
		}
		tm.Commit()
		if model != nil {
			model.Fold()
		}
		lcbUsed[bestLCB]++
		res.Reconnected++
		res.ResidualAbs += math.Abs(tm.BaseLatency(ff) - desired[ff])
	}
	if model != nil {
		tm.Update()
		model.Release()
	}

	res.Elapsed = time.Since(start)
	return res
}

// trialPath overrides useModel's rule in the differential tests: +1 forces
// the launch→capture model, −1 the per-trial Update, 0 applies the rule.
var trialPath int

// useModel reports whether a reconnection pass over the given number of
// targets decides its trials on the launch→capture model (see Reconnect).
func useModel(targets, lcbs int) bool {
	if trialPath != 0 {
		return trialPath > 0
	}
	return targets > lcbs
}

// cand is a reconnection candidate: an LCB and how far its distance from
// the flip-flop is off Dist*.
type cand struct {
	lcb netlist.CellID
	off float64
}

// less orders candidates by their distance's offset from Dist*, then by LCB.
func (c cand) less(o cand) bool {
	if c.off != o.off {
		return c.off < o.off
	}
	return c.lcb < o.lcb
}

// keepBest inserts c into best, which holds at most k candidates in
// ascending order, dropping the largest when best overflows. Over a stream
// of candidates it keeps exactly the first k of the stream sorted.
func keepBest(best []cand, c cand, k int) []cand {
	if len(best) == k {
		if !c.less(best[k-1]) {
			return best
		}
		best = best[:k-1]
	}
	i := len(best)
	best = append(best, c)
	for ; i > 0 && c.less(best[i-1]); i-- {
		best[i] = best[i-1]
	}
	best[i] = c
	return best
}

// predictReconnect estimates the flip-flop's latency after reconnecting from
// LCB `from` to LCB `to`, and the summed |Δlatency| induced on the other
// flip-flops of both LCBs (the CPPR-motivated impact term of §IV-A).
func predictReconnect(tm *timing.State, ff, from, to netlist.CellID) (newLat, impact float64) {
	d := tm.D
	m := tm.M
	ck := d.FFClock(ff)
	ckCap := d.Pins[ck].Cap

	// Current arrival at the destination LCB's output.
	toOutNet := d.Pins[d.LCBOut(to)].Net
	toFanout := d.Nets[toOutNet].Sinks
	var toBase float64 // latency at LCB output = any sink's base − its branch
	if len(toFanout) > 0 {
		s := toFanout[0]
		sff := d.Pins[s].Cell
		toBase = tm.BaseLatency(sff) - m.SinkWireDelay(d, toOutNet, s)
	} else {
		// Empty LCB: derive from the clock root side.
		toBase = lcbOutArrival(tm, to)
	}

	dist := d.Cells[ff].Pos.Manhattan(d.Cells[to].Pos)
	addedLoad := ckCap + m.WireCap(dist)
	drive := d.Cells[to].Type.DriveRes
	// Extra LCB arc delay from the added load shifts everyone on `to`; the
	// impact term is the per-flip-flop latency shift each side sees.
	shift := drive * addedLoad
	newLat = toBase + shift + m.WireDelay(dist, ckCap)
	if len(toFanout) > 0 {
		impact += shift
	}

	// Removing the FF from `from` speeds its remaining flip-flops up.
	fromOutNet := d.Pins[d.LCBOut(from)].Net
	if fromOutNet != netlist.NoNet && len(d.Nets[fromOutNet].Sinks) > 1 {
		oldDist := d.Cells[ff].Pos.Manhattan(d.Cells[from].Pos)
		removedLoad := ckCap + m.WireCap(oldDist)
		impact += d.Cells[from].Type.DriveRes * removedLoad
	}
	return newLat, impact
}

// lcbOutArrival computes the clock arrival at an LCB's output from the root
// side, for LCBs that currently drive nothing. It mirrors the timer's
// CTS-balanced root→LCB model.
func lcbOutArrival(tm *timing.State, lcb netlist.CellID) float64 {
	d := tm.D
	m := tm.M
	rootOut := d.OutPin(d.ClockRoot)
	rootNet := d.Pins[rootOut].Net
	rootDelay := m.CellDelay(d.Cells[d.ClockRoot].Type, m.NetLoad(d, rootNet))
	balanced := 0.0
	for _, s := range d.Nets[rootNet].Sinks {
		if w := m.SinkWireDelay(d, rootNet, s); w > balanced {
			balanced = w
		}
	}
	outNet := d.Pins[d.LCBOut(lcb)].Net
	var load float64
	if outNet != netlist.NoNet {
		load = m.NetLoad(d, outNet)
	}
	return rootDelay + balanced + m.CellDelay(d.Cells[lcb].Type, load)
}
