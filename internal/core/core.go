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
package core

import (
	"fmt"
	"math"
	"time"

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

// ValidateInput checks a design for the degenerate shapes that make clock
// skew scheduling meaningless, returning a *DegenerateInputError describing
// the first one found. The schedulers call its timer-aware variant
// (sched.ValidateTimer) on entry.
func ValidateInput(d *netlist.Design) error { return sched.ValidateInput(d) }

// Scheduler exposes Schedule behind the shared sched.Scheduler interface,
// for callers (the engine) that dispatch on method dynamically.
var Scheduler sched.Scheduler = sched.Func(Schedule)

// isPortCell reports whether a cell is an I/O supernode.
func isPortCell(d *netlist.Design, c netlist.CellID) bool {
	k := d.Cells[c].Type.Kind
	return k == netlist.KindPortIn || k == netlist.KindPortOut
}

// Schedule runs Alg 1 on the timer's design and returns the target
// latencies. The computed latencies are left applied on the timer as
// predictive (extra) latencies; callers that only want the schedule can
// remove them afterwards. Degenerate designs (see ValidateInput) return a
// *DegenerateInputError with no latencies applied.
func Schedule(tm sched.TimingView, opts Options) (*Result, error) {
	start := time.Now()
	if err := sched.ValidateTimer(tm); err != nil {
		return nil, err
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 200
	}
	rec := opts.Recorder
	if rec == nil {
		rec = tm.Recorder()
	}
	req := obs.RequestID(opts.Context)
	runSp := rec.StartSpan(obs.SpanSchedule).WithReq(req)
	// Cooperative cancellation: the amortized stop hook is installed on the
	// timer only when a context or deadline is present, so uncancelled runs
	// execute exactly the code they always did.
	cc := opts.Canceller()
	if cc.Active() {
		prevCheck := tm.Check()
		tm.SetCheck(cc.Stop)
		defer tm.SetCheck(prevCheck)
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	d := tm.Design()
	g := seqgraph.New()
	isPort := func(c netlist.CellID) bool { return isPortCell(d, c) }

	res := &Result{Target: map[netlist.CellID]float64{}, Graph: g}

	// lastExtract records the endpoint slack at the time of its last
	// extraction, so unchanged endpoints are skipped ("newly violated
	// timing endpoints", §III-B1).
	lastExtract := map[timing.EndpointID]float64{}

	var violBuf, traceBuf []timing.EndpointID
	var edgeBuf []timing.SeqEdge

	extract := func(force bool) int {
		esp := rec.StartSpan(obs.SpanRoundExtract).WithReq(req)
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
		added := 0
		for _, se := range edgeBuf {
			if _, isNew := g.AddSeqEdge(se, isPort); isNew {
				added++
			}
		}
		esp.EndArg2("traced", int64(len(traceBuf)), "added", int64(added))
		return added
	}

	// emitRound folds one finished round into the recorder (counters, JSONL
	// event, live gauges) and fires the Progress callback. All of it no-ops
	// without a recorder except Progress, which works standalone.
	emitRound := func(st IterStats, stall int) {
		if rec != nil {
			rec.Add(obs.CtrRounds, 1)
			rec.Add(obs.CtrRoundEdges, int64(st.NewEdges))
			rec.Add(obs.CtrRaised, int64(st.Raised))
			rec.Add(obs.CtrClampsEq11, int64(st.Clamped))
			if st.CycleLen > 0 {
				rec.Add(obs.CtrCyclesFrozen, 1)
			}
			rec.SetGauge(obs.GaugeGraphVerts, int64(g.NumVertices()))
			rec.SetGauge(obs.GaugeGraphEdges, int64(len(g.Edges)))
			rec.Emit(obs.Event{
				Type: "round", Req: req, Algo: "core", Mode: opts.Mode.String(),
				Round: st.Round, WNS: st.WNS, TNS: st.TNS,
				NewEdges: st.NewEdges, Raised: st.Raised, CycleLen: st.CycleLen,
				MaxInc: st.MaxInc, TimerPins: st.TimerPins, Stall: stall,
				ElapsedMS: float64(time.Since(start).Nanoseconds()) / 1e6,
				Corners:   sched.CornerStats(tm, opts.Mode),
			})
		}
		if opts.Progress != nil {
			opts.Progress(st)
		}
	}

	// Eq-5 lower bounds: pre-apply the mandated minimum latencies so the
	// iteration (which only ever raises) starts from a feasible point.
	if opts.LatencyLB != nil {
		applied := false
		for _, ff := range d.FFs {
			if lb := opts.LatencyLB(ff); lb > eps {
				tm.AddExtraLatency(ff, lb)
				res.Target[ff] += lb
				applied = true
			}
		}
		if applied {
			tm.Update()
		}
	}

	if opts.StallRounds == 0 {
		opts.StallRounds = 3
	}
	_, prevTNS := tm.WNSTNS(opts.Mode)
	stall := sched.NewStallTracker(opts.StallRounds, prevTNS)

	res.StopReason = sched.StopRoundCap
	finalSweepDone := false
	for round := 0; round < opts.MaxRounds; round++ {
		if r, stop := cc.Reason(); stop {
			res.StopReason = r
			break
		}
		roundSp := rec.StartSpan(obs.SpanRound).WithReq(req)
		newEdges := extract(false)

		// Current weights (Eq 10 realized by re-evaluating Eq 1–2 under the
		// present latencies).
		w := make([]float64, len(g.Edges))
		for i := range g.Edges {
			w[i] = tm.EdgeSlack(g.Edges[i].Seq)
		}
		// The working edge set keeps just-fixed (zero-slack) edges — they
		// are what lets arborescence construction recognize a cycle whose
		// edges were zeroed one at a time in earlier rounds (§III-B2) — and,
		// under a positive Margin, the near-critical band as well, so an
		// almost-closed cycle is recognized before the iteration crawls
		// into it. Slacks beyond the band drop out.
		essential := func(eid int32) bool { return w[eid] < opts.Margin+eps }

		fsp := rec.StartSpan(obs.SpanRoundForest).WithReq(req)
		forest, cyc := g.BuildForest(w, essential, math.Inf(1))

		st := IterStats{Round: round, NewEdges: newEdges}

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
			// §III-B2: the cycle bounds the achievable improvement at its
			// mean weight. Assign l_v = β(v)·T − α(v) along the cycle
			// (shifted so the minimum is zero) and freeze its vertices.
			res.Cycles++
			st.CycleLen = len(cyc.Vertices)
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
			for i, v := range cyc.Vertices {
				l := lat[i] - minL
				g.Freeze(v)
				if l > eps && !g.IsPort[v] {
					cell := g.Cells[v]
					tm.AddExtraLatency(cell, l)
					res.Target[cell] += l
					st.Raised++
					if l > st.MaxInc {
						st.MaxInc = l
					}
				}
			}
			st.TimerPins = tm.Update()
			st.WNS, st.TNS = tm.WNSTNS(opts.Mode)
			res.PerIter = append(res.PerIter, st)
			res.Rounds = round + 1
			// Cycle rounds refresh the stall baseline: the Eq-9 equalization
			// redistributes slack without necessarily moving TNS, so the next
			// round must measure its gain against the post-freeze state — but
			// freezing a cycle is structural progress, so the round neither
			// counts toward nor triggers the guard.
			stall.ObserveCycle(st.TNS)
			rec.Instant("css.cycle_frozen", "len", int64(st.CycleLen))
			emitRound(st, stall.Count())
			logf("css[%v] round %d: cycle of %d frozen (mean %.3f) wns=%.2f tns=%.2f pins=%d",
				opts.Mode, round, st.CycleLen, tMean, st.WNS, st.TNS, st.TimerPins)
			roundSp.EndArg2("round", int64(round), "cycle_len", int64(st.CycleLen))
			continue
		}

		psp := rec.StartSpan(obs.SpanRoundPasses).WithReq(req)
		head := HeadroomFunc(tm, g, opts, res.Target)
		lmax := PassOne(g, forest, w, essential, head)
		inc, capped := PassTwo(g, w, essential, lmax)
		for _, c := range capped {
			if c {
				st.Clamped++
			}
		}
		psp.End()

		// Apply increments.
		maxInc := 0.0
		for v, l := range inc {
			if l <= eps || g.Frozen[v] || g.IsPort[v] {
				continue
			}
			cell := g.Cells[seqgraph.VertexID(v)]
			tm.AddExtraLatency(cell, l)
			res.Target[cell] += l
			st.Raised++
			if l > maxInc {
				maxInc = l
			}
		}
		st.MaxInc = maxInc
		st.TimerPins = tm.Update()
		st.WNS, st.TNS = tm.WNSTNS(opts.Mode)
		res.PerIter = append(res.PerIter, st)
		res.Rounds = round + 1

		gain, stalled := stall.Observe(st.TNS)
		emitRound(st, stall.Count())
		logf("css[%v] round %d: wns=%.2f tns=%.2f edges+%d raised=%d clamped=%d maxInc=%.3f pins=%d gain=%.3f stall=%d/%d",
			opts.Mode, round, st.WNS, st.TNS, st.NewEdges, st.Raised, st.Clamped,
			st.MaxInc, st.TimerPins, gain, stall.Count(), opts.StallRounds)
		roundSp.EndArg2("round", int64(round), "raised", int64(st.Raised))
		if stalled {
			res.StopReason = sched.StopStalled
			logf("css[%v] stall guard: %d consecutive rounds with TNS gain < max(1, 0.01%%·|TNS|) — stopping at round %d (StallRounds=%d)",
				opts.Mode, stall.Count(), round, opts.StallRounds)
			break
		}

		if maxInc <= eps {
			// Alg 1 line 13: no vertex received an increment. Before
			// terminating, run one forced extraction sweep: an edge may
			// have newly crossed zero without moving any endpoint's worst
			// slack (so the "newly violated" filter skipped it).
			if finalSweepDone {
				res.StopReason = sched.StopConverged
				logf("css[%v] converged: no increments after forced sweep — stopping at round %d", opts.Mode, round)
				break
			}
			finalSweepDone = true
			if extra := extract(true); extra == 0 {
				res.StopReason = sched.StopConverged
				logf("css[%v] converged: no increments and no new essential edges — stopping at round %d", opts.Mode, round)
				break
			}
			// New essential edges appeared: keep iterating.
			logf("css[%v] forced sweep found new essential edges — continuing", opts.Mode)
			continue
		}
		finalSweepDone = false
	}
	if res.StopReason.Interrupted() {
		// A cancellation noticed inside Update/extraction leaves the timer's
		// worklist partially drained; finish the propagation (hook off) so
		// Result.Target matches the applied latencies and a further Update
		// is a no-op — the partial result is a usable anytime answer.
		tm.SetCheck(nil)
		tm.Update()
		logf("css[%v] stopping: %s after round %d — returning consistent partial result",
			opts.Mode, res.StopReason, res.Rounds)
	} else if res.StopReason == sched.StopRoundCap {
		logf("css[%v] stopping: round cap reached (MaxRounds=%d)", opts.Mode, opts.MaxRounds)
	}

	res.EdgesExtracted = len(g.Edges)
	res.Elapsed = time.Since(start)
	runSp.EndArg2("rounds", int64(res.Rounds), "edges", int64(res.EdgesExtracted))
	return res, nil
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
