// Package fpm implements the Fast Predictive Useful Skew Methodology
// baseline (Kim et al., DAC'17, [3] in the paper): a one-shot predictive
// skew computation for EARLY (hold) violations performed at placement time.
//
// Its defining characteristics, which the comparison in Table I measures:
//
//   - it extracts the COMPLETE early sequential graph up front — one full
//     per-source traversal per sequential vertex, the O(n·m') cost that the
//     paper's iterative extraction avoids;
//   - it assigns skews in a single greedy pass over the violating edges,
//     without timer-in-the-loop feedback, bounded by a one-time late-slack
//     snapshot per launch vertex — so conflicting or bound-capped
//     violations leave residual negative slack (the nonzero FPM rows of
//     Table I);
//   - it performs no physical optimization, so its HPWL impact is nil.
//
// It runs inside the shared sched.Run scaffold, but never installs the stop
// hook: cancellation is checked per launch during extraction only, and the
// one greedy round is reported once, labelled early whatever Options.Mode
// holds.
package fpm

import (
	"math"
	"sort"

	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

const eps = 1e-6

// Options configures an FPM run: the shared scheduler options. FPM consumes
// Context/Deadline, LatencyUB, Recorder, Progress and Log; the remaining
// fields are ignored (FPM is one-shot and early-only by construction —
// Progress fires exactly once, with the whole pass as round 0).
type Options = sched.Options

// Result is the shared scheduler result. FPM fills only Target,
// EdgesExtracted, Elapsed and Graph.
type Result = sched.Result

// Scheduler exposes Schedule behind the shared sched.Scheduler interface.
var Scheduler sched.Scheduler = sched.Func(Schedule)

// Schedule runs FPM: full early-graph extraction followed by one greedy
// predictive skew pass. Latencies are left applied on the timer. Degenerate
// designs return a *sched.DegenerateInputError, matching core and iccss.
func Schedule(tm sched.TimingView, opts Options) (*Result, error) {
	// FPM fixes hold violations by construction, and past extraction it
	// commits, so no stop hook may cut its final Update short.
	opts.Mode = timing.Early
	run, err := sched.Begin(tm, &opts, sched.Algo{Name: "fpm", Tag: "fpm"})
	if err != nil {
		return nil, err
	}
	d := tm.Design()
	res, g, rec := run.Res, run.Res.Graph, run.Rec

	// Full sequential graph extraction: every early edge of the design. This
	// up-front O(n·m') sweep dominates FPM's runtime, so cancellation is
	// checked per launch here; past it the run commits (one greedy pass and
	// a single apply+Update), so the commit is never interrupted.
	esp := rec.NamedSpan("fpm.full_extract")
	var edgeBuf []timing.SeqEdge
	var launches []netlist.CellID
	launches = append(launches, d.FFs...)
	launches = append(launches, d.InPorts...)
	for _, u := range launches {
		if run.Interrupted() {
			break
		}
		edgeBuf = tm.ExtractAllFrom(u, timing.Early, edgeBuf[:0])
		run.AddEdges(edgeBuf)
	}
	esp.EndArg2("launches", int64(len(launches)), "edges", int64(len(g.Edges)))
	if res.StopReason.Interrupted() {
		// Nothing has been applied to the timer yet, so the empty Target is
		// trivially consistent. No round is reported, so the edges extracted
		// so far are credited here.
		rec.Add(obs.CtrRoundEdges, int64(len(g.Edges)))
		run.Logf(" stopping: %s during full-graph extraction (%d edges so far) — nothing applied",
			res.StopReason, len(g.Edges))
		return run.Finish(), nil
	}
	run.Logf(": full sequential graph extracted: %d edges from %d launches",
		len(g.Edges), len(launches))
	gsp := rec.NamedSpan("fpm.greedy")

	// One-time late-slack snapshot bounds the launch raises.
	bound := map[netlist.CellID]float64{}
	for _, ff := range d.FFs {
		c := tm.LaunchLateSlack(ff)
		if c < 0 {
			c = 0
		}
		if opts.LatencyUB != nil {
			if ub := opts.LatencyUB(ff); ub < c {
				c = ub
			}
		}
		bound[ff] = c
	}

	// Greedy pass: most-violating edges first; raise the launch (the head
	// in unified early orientation) just enough, within its remaining cap.
	type cand struct {
		eid   int32
		slack float64
	}
	var cands []cand
	for eid := range g.Edges {
		s := tm.EdgeSlack(g.Edges[eid].Seq)
		if s < -eps {
			cands = append(cands, cand{int32(eid), s})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].slack != cands[j].slack {
			return cands[i].slack < cands[j].slack
		}
		return cands[i].eid < cands[j].eid
	})

	assigned := map[netlist.CellID]float64{}
	for _, c := range cands {
		e := &g.Edges[c.eid]
		head := e.To // the launch vertex for early edges
		if g.IsPort[head] {
			continue // port launches cannot be delayed: residual violation
		}
		cell := g.Cells[head]
		tail := e.From
		var tailRaise float64
		if !g.IsPort[tail] {
			tailRaise = assigned[g.Cells[tail]]
		}
		// Predictive slack under already-assigned raises (no propagation).
		s := c.slack + assigned[cell] - tailRaise
		if s >= -eps {
			continue
		}
		need := assigned[cell] - s
		limit := bound[cell]
		if need > limit {
			need = limit // capped: residual violation remains
		}
		if need > assigned[cell] {
			assigned[cell] = need
		}
	}

	st := sched.IterStats{NewEdges: len(g.Edges)}
	for cell, l := range assigned {
		if l <= eps || math.IsInf(l, 0) || math.IsNaN(l) {
			continue
		}
		run.Apply(cell, l, &st)
	}
	st.TimerPins = tm.Update()
	gsp.EndArg2("violations", int64(len(cands)), "raised", int64(st.Raised))

	// The one-shot pass is the run's single "round": report it exactly
	// once. The WNS/TNS sweep runs only when someone is listening.
	if rec != nil || opts.Progress != nil || opts.Log != nil {
		st.WNS, st.TNS = tm.WNSTNS(timing.Early)
		run.Round(st, 0)
		run.Logf(" converged: one-shot greedy pass over %d violating edges raised %d launches (maxInc=%.3f) wns=%.2f tns=%.2f pins=%d",
			len(cands), st.Raised, st.MaxInc, st.WNS, st.TNS, st.TimerPins)
	}
	return run.Finish(), nil
}
