// Package iccss implements the IC-CSS+ baseline: Albrecht's incremental
// clock skew scheduling [9] adapted to the paper's negative-slack
// optimization problem per §III-E.
//
// The defining contrast with the core algorithm is the extraction strategy:
//
//   - IC-CSS precomputes every vertex's maximum outgoing path delay d^out
//     once, declares a vertex critical when Eq (8) holds
//     (l_u + d^out_u ≥ T − setup), and then extracts ALL of the vertex's
//     outgoing sequential edges through a callback — violating or not;
//   - when a computed latency would exceed a vertex's ŝ bound, a second
//     callback extracts ALL constraint edges incident to that vertex
//     (§III-E ii), because IC-CSS tracks the bound through extracted edges
//     rather than timer propagation;
//   - cycle handling and the latency calculation itself are replaced with
//     the paper's §III-B2 / §III-C3 machinery (§III-E i, iii) — core's own
//     FreezeCycle, PassOne, PassTwo and Raise — so IC-CSS+ reaches the same
//     schedule quality as the core algorithm; it just pays an order of
//     magnitude more extraction work to get there.
//
// The run around the algorithm (validation, defaults, recorder, stop hook,
// round reports, the closing drain) is the shared sched.Run.
package iccss

import (
	"math"

	"iterskew/internal/core"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/seqgraph"
	"iterskew/internal/timing"
)

const eps = 1e-6

// Options configures an IC-CSS+ run: the shared scheduler options. IC-CSS+
// consumes Mode, Context/Deadline, MaxRounds, StallRounds, LatencyUB,
// Workers, Recorder, Progress and Log; the remaining fields (Margin,
// LatencyLB, DisableHeadroom) are core-specific and ignored here.
type Options = sched.Options

// Result is the shared scheduler result; IC-CSS+ additionally fills
// CriticalVerts (vertices whose full fanout was extracted) and
// ConstraintExts (constraint-edge callback invocations).
type Result = sched.Result

// Scheduler exposes Schedule behind the shared sched.Scheduler interface.
var Scheduler sched.Scheduler = sched.Func(Schedule)

// Schedule runs IC-CSS+ on the timer's design. Like core.Schedule it leaves
// the computed latencies applied as predictive latencies, and like
// core.Schedule it rejects degenerate designs with a
// *sched.DegenerateInputError.
func Schedule(tm sched.TimingView, opts Options) (*Result, error) {
	run, err := sched.Begin(tm, &opts, sched.Algo{Name: "iccss", Tag: "iccss", Hook: true})
	if err != nil {
		return nil, err
	}
	d := tm.Design()
	res, g, rec := run.Res, run.Res.Graph, run.Rec

	// Sequential vertices: flip-flops plus input ports (late launches) or
	// all endpoints (early captures).
	var launches []netlist.CellID
	launches = append(launches, d.FFs...)
	launches = append(launches, d.InPorts...)

	// One-time precomputation, as in [9].
	maxSetup := 0.0
	for _, ff := range d.FFs {
		if s := d.Cells[ff].Type.Setup; s > maxSetup {
			maxSetup = s
		}
	}
	dOut := map[netlist.CellID]float64{}
	for _, u := range launches {
		dOut[u] = tm.DOut(u)
	}
	// Eq (8) compares a launch's worst arrival against a capture
	// requirement. IC-CSS does not know which capture an unextracted edge
	// reaches, nor how far scheduling will eventually raise the launch, so
	// its one-time bound is doubly conservative: it assumes the
	// earliest-clocked capture (minimum base latency) and a launch raise of
	// up to the design's maximum ŝ headroom. This is what makes the
	// callback fire for nearly every vertex on timing-driven inputs — the
	// over-extraction the paper measures in Table I.
	minBase := d.PortLatency
	for _, ff := range d.FFs {
		if b := tm.BaseLatency(ff); b < minBase {
			minBase = b
		}
	}
	maxRaise := 0.0
	for _, ff := range d.FFs {
		if s := tm.EarlySlack(tm.EndpointOf(ff)); !math.IsInf(s, 0) && s > maxRaise {
			maxRaise = s
		}
	}
	if maxRaise > tm.Period() {
		maxRaise = tm.Period()
	}
	// Early-mode snapshot: the initial early slack per endpoint; raising a
	// capture's latency by more than this makes it hold-critical.
	earlySnap := map[netlist.CellID]float64{}
	if opts.Mode == timing.Early {
		for _, ff := range d.FFs {
			earlySnap[ff] = tm.EarlySlack(tm.EndpointOf(ff))
		}
	}
	// One-time ŝ snapshot per flip-flop (IC-CSS has the input STA report but
	// never re-propagates, so this bound goes stale as latencies move — the
	// callback below repairs it with exact extracted edges).
	sHatSnap := map[netlist.CellID]float64{}
	for _, ff := range d.FFs {
		if opts.Mode == timing.Late {
			sHatSnap[ff] = tm.EarlySlack(tm.EndpointOf(ff))
		} else {
			sHatSnap[ff] = tm.LaunchLateSlack(ff)
		}
	}

	extractedFull := map[netlist.CellID]bool{}
	constraintDone := map[netlist.CellID]bool{}

	var edgeBuf []timing.SeqEdge
	var critBuf []netlist.CellID

	// extractCritical applies the Eq-8 callback: any vertex that could be
	// involved in a violation under the current latencies has its complete
	// edge set pulled in. Criticality depends only on state fixed before the
	// round (d^out, applied latencies, the early snapshot), so the round's
	// critical set is collected first and traced as one batch — the timer
	// fans the full-cone traces out to the worker pool with results
	// identical to the serial per-vertex loop.
	extractCritical := func() int {
		critBuf = critBuf[:0]
		if opts.Mode == timing.Late {
			for _, u := range launches {
				if extractedFull[u] {
					continue
				}
				do := dOut[u]
				if math.IsInf(do, -1) {
					continue
				}
				lat := d.PortLatency - minBase
				if d.Cells[u].Type.Kind == netlist.KindFF {
					lat = tm.ExtraLatency(u) + tm.BaseLatency(u) - minBase
				}
				if lat+maxRaise+do < tm.Period()-maxSetup-eps {
					continue // not critical (Eq 8, conservative bound)
				}
				extractedFull[u] = true
				critBuf = append(critBuf, u)
			}
			edgeBuf = tm.ExtractAllFromBatch(critBuf, timing.Late, opts.Workers, edgeBuf[:0])
		} else {
			for _, ff := range d.FFs {
				if extractedFull[ff] {
					continue
				}
				// Critical when the raise consumed the snapshot early slack.
				if res.Target[ff] < earlySnap[ff]-eps && earlySnap[ff] > eps {
					continue
				}
				extractedFull[ff] = true
				critBuf = append(critBuf, ff)
			}
			edgeBuf = tm.ExtractAllIntoBatch(critBuf, timing.Early, opts.Workers, edgeBuf[:0])
		}
		res.CriticalVerts += len(critBuf)
		rec.Add(obs.CtrCriticalVerts, int64(len(critBuf)))
		return run.AddEdges(edgeBuf)
	}

	// extractConstraints pulls in the opposite-type edges bounding a vertex
	// (§III-E ii).
	opp := timing.Early
	if opts.Mode == timing.Early {
		opp = timing.Late
	}
	extractConstraints := func(cell netlist.CellID) int {
		if constraintDone[cell] {
			return 0
		}
		constraintDone[cell] = true
		res.ConstraintExts++
		rec.Add(obs.CtrConstraintExts, 1)
		if opp == timing.Early {
			// Bound on a capture raise: early edges ending at the vertex.
			edgeBuf = tm.ExtractAllInto(cell, timing.Early, edgeBuf[:0])
		} else {
			// Bound on a launch raise: late edges launched by the vertex.
			edgeBuf = tm.ExtractAllFrom(cell, timing.Late, edgeBuf[:0])
		}
		return run.AddEdges(edgeBuf)
	}

	// headroom derives the ŝ bound without timer propagation (that is the
	// core algorithm's trick): from the one-time snapshot before the
	// constraint callback fired for a vertex, and from the extracted
	// constraint edges (whose weights follow Eq 10) afterwards. In unified
	// orientation the constraining opposite-mode edges are exactly the
	// vertex's OUTGOING opp-mode edges: raising the head of a mode-M edge
	// hurts every edge in which that vertex is the tail.
	headroom := func(v seqgraph.VertexID) float64 {
		if g.Frozen[v] || g.IsPort[v] {
			return 0
		}
		cell := g.Cells[v]
		var h float64
		if constraintDone[cell] {
			h = math.Inf(1)
			for _, eid := range g.Out[v] {
				e := &g.Edges[eid]
				if e.Seq.Mode != opp {
					continue
				}
				if s := tm.EdgeSlack(e.Seq); s < h {
					h = s
				}
			}
		} else {
			h = sHatSnap[cell] - res.Target[cell] // stale snapshot bound
		}
		if h < 0 {
			h = 0
		}
		if opts.LatencyUB != nil {
			if ub := opts.LatencyUB(cell) - res.Target[cell]; ub < h {
				h = ub
			}
			if h < 0 {
				h = 0
			}
		}
		return h
	}

	// The shared stall guard (Options.StallRounds): IC-CSS+'s conservative
	// Eq-8 criticality can leave it crawling by epsilon-sized increments for
	// many rounds; the guard turns that into an explainable StopStalled.
	_, prevTNS := tm.WNSTNS(opts.Mode)
	stall := sched.NewStallTracker(opts.StallRounds, prevTNS)

	res.StopReason = sched.StopRoundCap
	for round := 0; round < opts.MaxRounds; round++ {
		if run.Interrupted() {
			break
		}
		roundSp := run.Span(obs.SpanRound)
		st := sched.IterStats{Round: round, NewEdges: extractCritical()}

		w := core.Weights(tm, g)
		include := func(eid int32) bool {
			return g.Edges[eid].Seq.Mode == opts.Mode && w[eid] < eps
		}

		forest, cyc := g.BuildForest(w, include, math.Inf(1))
		if cyc != nil {
			mean := core.FreezeCycle(run, w, cyc, &st)
			res.Rounds = round + 1
			// Cycle rounds refresh the stall baseline but never count toward
			// the guard (see sched.StallTracker).
			stall.ObserveCycle(st.TNS)
			run.Round(st, stall.Count())
			run.Logf(" round %d: cycle of %d frozen (mean %.3f) wns=%.2f tns=%.2f pins=%d",
				round, st.CycleLen, mean, st.WNS, st.TNS, st.TimerPins)
			roundSp.EndArg2("round", int64(round), "cycle_len", int64(st.CycleLen))
			continue
		}

		// Two-pass calculation with the constraint-edge callback loop: when
		// a vertex's need exceeds its currently known bound, extract its
		// constraint edges, rebuild the arborescences over the grown graph,
		// and recompute.
		var inc []float64
		constraintAdded := 0
		for inner := 0; inner < 4; inner++ {
			lmax := core.PassOne(g, forest, w, include, headroom)
			var capped []bool
			inc, capped = core.PassTwo(g, w, include, lmax)
			trigger := false
			for v := range capped {
				if capped[v] && inc[v] > eps && !constraintDone[g.Cells[v]] && !g.IsPort[seqgraph.VertexID(v)] {
					constraintAdded += extractConstraints(g.Cells[v])
					trigger = true
				}
			}
			if !trigger {
				break
			}
			// Refresh weights and structures for the newly added edges and
			// vertices.
			w = core.Weights(tm, g)
			var cyc2 *seqgraph.Cycle
			forest, cyc2 = g.BuildForest(w, include, math.Inf(1))
			if cyc2 != nil {
				// A cycle surfaced mid-round: defer it to the next round's
				// cycle handler and apply nothing now.
				inc = nil
				break
			}
		}

		core.Raise(run, inc, &st)
		res.Rounds = round + 1
		gain, stalled := stall.Observe(st.TNS)
		run.Round(st, stall.Count())
		run.Logf(" round %d: wns=%.2f tns=%.2f edges+%d raised=%d maxInc=%.3f pins=%d gain=%.3f stall=%d/%d",
			round, st.WNS, st.TNS, st.NewEdges, st.Raised, st.MaxInc, st.TimerPins, gain, stall.Count(), opts.StallRounds)
		roundSp.EndArg2("round", int64(round), "raised", int64(st.Raised))

		if st.MaxInc <= eps && st.NewEdges == 0 && constraintAdded == 0 {
			res.StopReason = sched.StopConverged
			run.Logf(" converged: no increments, no new critical or constraint edges — stopping at round %d", round)
			break
		}
		if stalled {
			run.Stall(stall.Count(), round)
			break
		}
	}
	return run.Finish(), nil
}
