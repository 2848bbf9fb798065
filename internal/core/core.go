// Package core implements the paper's primary contribution: the fast
// iterative clock skew scheduling algorithm with dynamic sequential graph
// extraction (Alg 1).
//
// Each iteration:
//
//  1. asks the timer for the currently violated endpoints and extracts only
//     their essential sequential edges (§III-B1, the Update-Extract
//     Mechanism);
//  2. builds non-negative-latency arborescences over the essential edges
//     (§III-C2);
//  3. on a cycle, assigns the mean-weight latencies of Eq (9) to the cycle,
//     freezes it, and reiterates (§III-B2);
//  4. otherwise runs the two-pass traversal (Eqs 12–14, §III-C3) to compute
//     this iteration's latency increments, bounded by the ŝ headroom of
//     Eq (11) — refreshed by the timer instead of extracting constraint
//     edges — and by the user latency bounds of Eq (5);
//  5. applies the increments as predictive latencies, re-propagates timing
//     incrementally, and repeats until no vertex receives a new increment.
//
// The run scaffold the three schedulers share (validation, option defaults,
// recorder, stop hook, round reports, the closing drain) is sched.Run; this
// package keeps Alg 1 itself. IC-CSS+ reuses its cycle step (FreezeCycle),
// its two passes (PassOne, PassTwo) and its increment step (Raise), as
// §III-E prescribes.
package core

import (
	"math"

	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/seqgraph"
	"iterskew/internal/timing"
)

const eps = 1e-6

// The scheduler contract (options, result, degenerate-input validation) is
// shared with iccss and fpm through internal/sched; the aliases below keep
// the historical core.* names working everywhere.
type (
	// DegenerateInputError reports an input the schedulers cannot process;
	// see sched.DegenerateInputError.
	DegenerateInputError = sched.DegenerateInputError
	// Options configures one scheduling run (shared scheduler options).
	Options = sched.Options
	// IterStats records one iteration for the Fig-8 style trajectory.
	IterStats = sched.IterStats
	// CycleFix records one Eq-9 cycle assignment.
	CycleFix = sched.CycleFix
	// Result is the outcome of a Schedule run (shared scheduler result).
	Result = sched.Result
)

// Scheduler exposes Schedule behind the shared sched.Scheduler interface,
// for callers (the engine) that dispatch on method dynamically.
var Scheduler sched.Scheduler = sched.Func(Schedule)

// Schedule runs Alg 1 on the timer's design and returns the target
// latencies. The computed latencies are left applied on the timer as
// predictive (extra) latencies; callers that only want the schedule can
// remove them afterwards. Degenerate designs (see sched.ValidateInput) return
// a *DegenerateInputError with no latencies applied.
func Schedule(tm sched.TimingView, opts Options) (*Result, error) {
	run, err := sched.Begin(tm, &opts, sched.Algo{Name: "core", Tag: "css", Hook: true})
	if err != nil {
		return nil, err
	}
	res, g := run.Res, run.Res.Graph

	// lastExtract records the endpoint slack at the time of its last
	// extraction, so unchanged endpoints are skipped ("newly violated
	// timing endpoints", §III-B1).
	lastExtract := map[timing.EndpointID]float64{}

	var violBuf, traceBuf []timing.EndpointID
	var edgeBuf []timing.SeqEdge

	extract := func(force bool) int {
		esp := run.Span(obs.SpanRoundExtract)
		if opts.Margin > 0 {
			// §V amplification: treat endpoints within the margin as
			// violated, so near-critical edges (e.g. the remaining arcs of
			// an almost-closed cycle) are extracted too.
			violBuf = violBuf[:0]
			for e := range tm.Endpoints() {
				if tm.Slack(timing.EndpointID(e), opts.Mode) < opts.Margin-eps {
					violBuf = append(violBuf, timing.EndpointID(e))
				}
			}
		} else {
			violBuf = tm.ViolatedEndpoints(opts.Mode, violBuf[:0])
		}
		// Filter to the newly violated endpoints first, then trace all of
		// them in one batch so the worker pool sees the whole round's work.
		traceBuf = traceBuf[:0]
		for _, e := range violBuf {
			s := tm.Slack(e, opts.Mode)
			if prev, ok := lastExtract[e]; ok && !force && math.Abs(prev-s) <= eps {
				continue
			}
			traceBuf = append(traceBuf, e)
			lastExtract[e] = s
		}
		edgeBuf = tm.ExtractEssentialBatch(traceBuf, opts.Mode, opts.Margin, opts.Workers, edgeBuf[:0])
		added := run.AddEdges(edgeBuf)
		esp.EndArg2("traced", int64(len(traceBuf)), "added", int64(added))
		return added
	}

	// Eq-5 lower bounds: pre-apply the mandated minimum latencies so the
	// iteration (which only ever raises) starts from a feasible point.
	if opts.LatencyLB != nil {
		var lbs IterStats
		for _, ff := range tm.Design().FFs {
			if lb := opts.LatencyLB(ff); lb > eps {
				run.Apply(ff, lb, &lbs)
			}
		}
		if lbs.Raised > 0 {
			tm.Update()
		}
	}

	_, prevTNS := tm.WNSTNS(opts.Mode)
	stall := sched.NewStallTracker(opts.StallRounds, prevTNS)

	res.StopReason = sched.StopRoundCap
	finalSweepDone := false
	for round := 0; round < opts.MaxRounds; round++ {
		if run.Interrupted() {
			break
		}
		roundSp := run.Span(obs.SpanRound)
		st := IterStats{Round: round, NewEdges: extract(false)}

		w := Weights(tm, g)
		// The working edge set keeps just-fixed (zero-slack) edges — they
		// are what lets arborescence construction recognize a cycle whose
		// edges were zeroed one at a time in earlier rounds (§III-B2) — and,
		// under a positive Margin, the near-critical band as well, so an
		// almost-closed cycle is recognized before the iteration crawls
		// into it. Slacks beyond the band drop out.
		essential := func(eid int32) bool { return w[eid] < opts.Margin+eps }

		fsp := run.Span(obs.SpanRoundForest)
		forest, cyc := g.BuildForest(w, essential, math.Inf(1))
		if cyc == nil {
			// Arborescence construction only notices a cycle when its edges
			// chain up in attachment order; a rotating violation can keep a
			// cycle fragmented across trees indefinitely. A direct
			// negative-mean-cycle check over the partial graph (the MMWC
			// machinery of [8]) closes that gap: a cycle whose mean weight
			// is negative can never be fully scheduled away (§III-B2).
			cyc = g.NegativeMeanCycle(w, activeCycleEdges(g, essential), eps)
		}
		fsp.End()

		if cyc != nil {
			mean := FreezeCycle(run, w, cyc, &st)
			res.PerIter = append(res.PerIter, st)
			res.Rounds = round + 1
			// Cycle rounds refresh the stall baseline: the Eq-9 equalization
			// redistributes slack without necessarily moving TNS, so the next
			// round must measure its gain against the post-freeze state — but
			// freezing a cycle is structural progress, so the round neither
			// counts toward nor triggers the guard.
			stall.ObserveCycle(st.TNS)
			run.Rec.Instant("css.cycle_frozen", "len", int64(st.CycleLen))
			run.Round(st, stall.Count())
			run.Logf(" round %d: cycle of %d frozen (mean %.3f) wns=%.2f tns=%.2f pins=%d",
				round, st.CycleLen, mean, st.WNS, st.TNS, st.TimerPins)
			roundSp.EndArg2("round", int64(round), "cycle_len", int64(st.CycleLen))
			continue
		}

		psp := run.Span(obs.SpanRoundPasses)
		head := HeadroomFunc(tm, g, opts, res.Target)
		lmax := PassOne(g, forest, w, essential, head)
		inc, capped := PassTwo(g, w, essential, lmax)
		for _, c := range capped {
			if c {
				st.Clamped++
			}
		}
		psp.End()

		Raise(run, inc, &st)
		res.PerIter = append(res.PerIter, st)
		res.Rounds = round + 1

		gain, stalled := stall.Observe(st.TNS)
		run.Round(st, stall.Count())
		run.Logf(" round %d: wns=%.2f tns=%.2f edges+%d raised=%d clamped=%d maxInc=%.3f pins=%d gain=%.3f stall=%d/%d",
			round, st.WNS, st.TNS, st.NewEdges, st.Raised, st.Clamped,
			st.MaxInc, st.TimerPins, gain, stall.Count(), opts.StallRounds)
		roundSp.EndArg2("round", int64(round), "raised", int64(st.Raised))
		if stalled {
			run.Stall(stall.Count(), round)
			break
		}

		if st.MaxInc <= eps {
			// Alg 1 line 13: no vertex received an increment. Before
			// terminating, run one forced extraction sweep: an edge may
			// have newly crossed zero without moving any endpoint's worst
			// slack (so the "newly violated" filter skipped it).
			if finalSweepDone {
				res.StopReason = sched.StopConverged
				run.Logf(" converged: no increments after forced sweep — stopping at round %d", round)
				break
			}
			finalSweepDone = true
			if extra := extract(true); extra == 0 {
				res.StopReason = sched.StopConverged
				run.Logf(" converged: no increments and no new essential edges — stopping at round %d", round)
				break
			}
			// New essential edges appeared: keep iterating.
			run.Logf(" forced sweep found new essential edges — continuing")
			continue
		}
		finalSweepDone = false
	}
	return run.Finish(), nil
}

// Weights evaluates every edge of g under the view's present latencies: the
// Eq-10 weight update, realized by re-evaluating Eqs 1–2.
func Weights(tm sched.TimingView, g *seqgraph.Graph) []float64 {
	w := make([]float64, len(g.Edges))
	for i := range g.Edges {
		w[i] = tm.EdgeSlack(g.Edges[i].Seq)
	}
	return w
}

// FreezeCycle is the Eq-9 cycle step (§III-B2). The cycle bounds the
// achievable improvement at its mean weight, so it assigns
// l_v = β(v)·T − α(v) along the cycle (shifted so the minimum is zero),
// records the assignment in the run's CycleFixes, freezes the cycle's
// vertices and retimes. st gains the round's CycleLen, Raised, MaxInc,
// TimerPins, WNS and TNS; the return value is the cycle's mean weight.
func FreezeCycle(run *sched.Run, w []float64, cyc *seqgraph.Cycle, st *IterStats) float64 {
	g, res := run.Res.Graph, run.Res
	tMean := cyc.MeanWeight(w)
	fix := CycleFix{
		Cells: make([]netlist.CellID, len(cyc.Vertices)),
		Edges: make([]timing.SeqEdge, len(cyc.Edges)),
		Mean:  tMean,
	}
	for i, v := range cyc.Vertices {
		fix.Cells[i] = g.Cells[v]
	}
	for i, eid := range cyc.Edges {
		fix.Edges[i] = g.Edges[eid].Seq
	}
	res.Cycles++
	res.CycleFixes = append(res.CycleFixes, fix)
	lat := make([]float64, len(cyc.Vertices))
	alpha := 0.0
	minL := 0.0
	for i := range cyc.Vertices {
		lat[i] = float64(i)*tMean - alpha
		if i < len(cyc.Edges) {
			alpha += w[cyc.Edges[i]]
		}
		if lat[i] < minL {
			minL = lat[i]
		}
	}
	st.CycleLen = len(cyc.Vertices)
	for i, v := range cyc.Vertices {
		g.Freeze(v)
		if l := lat[i] - minL; l > eps && !g.IsPort[v] {
			run.Apply(g.Cells[v], l, st)
		}
	}
	run.Retime(st)
	return tMean
}

// Raise applies one round's two-pass increments (§III-C3, indexed by
// vertex): every increment above eps except at frozen vertices and ports.
// It then retimes; st gains the round's Raised, MaxInc, TimerPins, WNS and
// TNS.
func Raise(run *sched.Run, inc []float64, st *IterStats) {
	g := run.Res.Graph
	for v, l := range inc {
		if l <= eps || g.Frozen[v] || g.IsPort[v] {
			continue
		}
		run.Apply(g.Cells[v], l, st)
	}
	run.Retime(st)
}

// activeCycleEdges restricts cycle detection to essential edges between
// non-frozen vertices (frozen cycles have already been handled).
func activeCycleEdges(g *seqgraph.Graph, essential func(int32) bool) func(int32) bool {
	return func(eid int32) bool {
		if !essential(eid) {
			return false
		}
		e := &g.Edges[eid]
		return !g.Frozen[e.From] && !g.Frozen[e.To]
	}
}

// HeadroomFunc builds the per-vertex latency headroom of §III-C1: the
// timer-refreshed ŝ bound of Eq (11), tightened by the user bound of Eq (5),
// and zero for frozen vertices and ports.
func HeadroomFunc(tm sched.TimingView, g *seqgraph.Graph, opts Options, raised map[netlist.CellID]float64) func(seqgraph.VertexID) float64 {
	return func(v seqgraph.VertexID) float64 {
		if g.Frozen[v] || g.IsPort[v] {
			return 0
		}
		cell := g.Cells[v]
		var h float64
		if opts.DisableHeadroom {
			h = math.Inf(1)
		} else if opts.Mode == timing.Late {
			// Raising a capture latency may create hold violations ending
			// at this vertex: ŝ^E (Eq 11).
			h = tm.EarlySlack(tm.EndpointOf(cell))
		} else {
			// Raising a launch latency may create setup violations on the
			// paths it launches: ŝ^L via the Q-pin required time.
			h = tm.LaunchLateSlack(cell)
		}
		if h < 0 {
			h = 0
		}
		if opts.LatencyUB != nil {
			ub := opts.LatencyUB(cell) - raised[cell]
			if ub < h {
				h = ub
			}
			if h < 0 {
				h = 0
			}
		}
		return h
	}
}

// PassOne is the reverse-topological traversal of §III-C3: it computes the
// maximum allowable latency l^max for every vertex via Eqs (12)–(13), with a
// virtual endpoint carrying the headroom of sink vertices, and a hard cap at
// every vertex's own headroom.
func PassOne(g *seqgraph.Graph, f *seqgraph.Forest, w []float64,
	essential func(int32) bool, head func(seqgraph.VertexID) float64) []float64 {

	n := g.NumVertices()
	lmax := make([]float64, n)

	// Reverse-topological order over the essential subgraph.
	outdeg := make([]int32, n)
	for eid := range g.Edges {
		if essential(int32(eid)) {
			outdeg[g.Edges[eid].From]++
		}
	}
	queue := make([]seqgraph.VertexID, 0, n)
	for v := 0; v < n; v++ {
		if outdeg[v] == 0 {
			queue = append(queue, seqgraph.VertexID(v))
		}
	}
	processed := make([]bool, n)
	evaluate := func(u seqgraph.VertexID) {
		h := head(u)
		if f.Beta[u] == 0 {
			// Roots (and unattached vertices) are the latency baseline;
			// Eq 13 with β = 0 pins them at zero.
			lmax[u] = 0
			return
		}
		alpha, beta := f.Alpha[u], float64(f.Beta[u])
		wavg := math.Inf(-1)
		hasSucc := false
		for _, eid := range g.Out[u] {
			if !essential(eid) {
				continue
			}
			hasSucc = true
			v := g.Edges[eid].To
			lv := lmax[v]
			if !processed[v] && v != u {
				lv = 0 // cycle remnant: conservative
			}
			if c := (alpha + w[eid] + lv) / (beta + 1); c > wavg {
				wavg = c
			}
		}
		if !hasSucc {
			// Sink vertex: its virtual endpoint carries the headroom as the
			// terminal weight with l^max_end = 0 (Fig 6).
			wavg = (alpha + h) / (beta + 1)
		}
		l := beta*wavg - alpha
		if l > h {
			l = h // hard Eq-11 cap
		}
		if l < 0 {
			l = 0
		}
		lmax[u] = l
	}

	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		evaluate(u)
		processed[u] = true
		for _, eid := range g.In[u] {
			if !essential(eid) {
				continue
			}
			p := g.Edges[eid].From
			outdeg[p]--
			if outdeg[p] == 0 {
				queue = append(queue, p)
			}
		}
	}
	// Cycle remnants (not yet frozen): evaluate conservatively in id order.
	for v := 0; v < n; v++ {
		if !processed[v] {
			evaluate(seqgraph.VertexID(v))
			processed[v] = true
		}
	}
	return lmax
}

// PassTwo is the topological traversal of §III-C3: it assigns the actual
// latency increments via Eq (14), generalized to all incoming essential
// edges (the paper's Fig 6 cross-arborescence case): the increment is the
// largest need among incoming edges, capped at l^max. The second return
// value flags vertices whose need exceeded l^max — IC-CSS+ uses it to
// trigger its constraint-edge extraction callback (§III-E ii).
func PassTwo(g *seqgraph.Graph, w []float64,
	essential func(int32) bool, lmax []float64) ([]float64, []bool) {

	n := g.NumVertices()
	l := make([]float64, n)
	capped := make([]bool, n)

	indeg := make([]int32, n)
	for eid := range g.Edges {
		if essential(int32(eid)) {
			indeg[g.Edges[eid].To]++
		}
	}
	queue := make([]seqgraph.VertexID, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, seqgraph.VertexID(v))
		}
	}
	processed := make([]bool, n)
	assign := func(v seqgraph.VertexID) {
		if g.Frozen[v] || g.IsPort[v] {
			l[v] = 0
			return
		}
		need := 0.0
		for _, eid := range g.In[v] {
			if !essential(eid) {
				continue
			}
			u := g.Edges[eid].From
			// Eq 14: enough to zero the edge given the tail's assignment.
			if nv := l[u] - w[eid]; nv > need {
				need = nv
			}
		}
		if need > lmax[v]+eps {
			need = lmax[v]
			capped[v] = true
		}
		if need < 0 {
			need = 0
		}
		l[v] = need
	}

	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		assign(v)
		processed[v] = true
		for _, eid := range g.Out[v] {
			if !essential(eid) {
				continue
			}
			t := g.Edges[eid].To
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !processed[v] {
			assign(seqgraph.VertexID(v))
		}
	}
	return l, capped
}
