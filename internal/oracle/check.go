package oracle

import (
	"fmt"
	"math"

	"iterskew/internal/core"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// CheckOptions configures an invariant check of one schedule.
type CheckOptions struct {
	// Mode is the objective the schedule optimized: timing.Late for setup
	// (core/iccss default, fpm), timing.Early for hold.
	Mode timing.Mode
	// Tol is the base comparison tolerance in ps; 0 means 1e-6 (the
	// schedulers' convergence epsilon).
	Tol float64
	// LatencyUB is the Eq-5 per-flip-flop extra-latency upper bound the
	// schedule was constrained by, if any.
	LatencyUB func(netlist.CellID) float64
	// GapCheck also solves the full-graph LP and demands the achieved worst
	// slack be optimal or the gap be explained by hold-safety floors,
	// frozen cycles, ports or exhausted bounds.
	GapCheck bool
}

// Report is the outcome of one Check call.
type Report struct {
	// OK is true when every invariant held. Gap explanations do not fail a
	// report; unexplained gaps and invariant violations do.
	OK bool
	// Findings are invariant violations (bugs in the scheduler or timer).
	Findings []string
	// Notes are context lines: gap explanations, binding constraints.
	Notes []string

	// WNS is the worst objective-mode endpoint slack, recomputed by the
	// oracle under the timer's final latencies (+Inf with no edges).
	WNS float64
	// OptFree is the unconstrained LP optimum (set when GapCheck ran).
	OptFree float64
	// OptSafe is the opposite-mode-safe LP optimum (set when the free
	// optimum was not reached and the safe LP was consulted).
	OptSafe float64
	// Gap is max(0, min(OptFree,0) − min(WNS,0)): how far the schedule
	// stayed from the violation-free optimum, counting only violations.
	Gap float64
	// GapExplained is true when Gap ≤ tolerance or every contributing edge
	// is provably blocked.
	GapExplained bool
}

const maxReportLines = 24

func (r *Report) finding(format string, args ...any) {
	r.OK = false
	if len(r.Findings) < maxReportLines {
		r.Findings = append(r.Findings, fmt.Sprintf(format, args...))
	} else if len(r.Findings) == maxReportLines {
		r.Findings = append(r.Findings, "... more findings suppressed")
	}
}

func (r *Report) note(format string, args ...any) {
	if len(r.Notes) < maxReportLines {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	} else if len(r.Notes) == maxReportLines {
		r.Notes = append(r.Notes, "... more notes suppressed")
	}
}

// Checker validates schedules produced against one timing.State using the
// independent full-graph oracle. Build it BEFORE scheduling: the constructor
// snapshots the pre-schedule latency baseline and endpoint slacks that the
// Eq-11 safety floors and the LP baseline are measured from.
type Checker struct {
	G    *Graph
	opts CheckOptions
	tol  float64

	base              map[netlist.CellID]float64 // extra latencies at construction
	preLate, preEarly map[netlist.CellID]float64 // endpoint slacks at the baseline
}

// NewChecker extracts the full sequential graph and cross-validates the two
// independent STAs on the unscheduled design: every endpoint slack the timer
// reports must match the oracle's recomputation. A disagreement here means
// one of the engines mis-times the netlist and any later check would be
// meaningless, so it is an error rather than a finding.
func NewChecker(tm *timing.State, opts CheckOptions) (*Checker, error) {
	// Extract under the timer's EFFECTIVE corner — its (possibly what-if)
	// period and derates, not the design/model defaults — so a retimed or
	// re-derated state cross-validates instead of trivially disagreeing.
	de, dl := tm.Derates()
	g, err := ExtractAt(tm.D, tm.M, tm.Period(), de, dl)
	if err != nil {
		return nil, err
	}
	c := &Checker{G: g, opts: opts, tol: opts.Tol}
	if c.tol <= 0 {
		c.tol = 1e-6
	}
	c.base = snapshotExtras(tm)
	if msgs := c.compareEndpoints(tm, c.base); len(msgs) > 0 {
		return nil, fmt.Errorf("oracle: pre-schedule STA disagreement: %s (and %d more)",
			msgs[0], len(msgs)-1)
	}
	c.preLate = g.EndpointSlacks(true, c.base)
	c.preEarly = g.EndpointSlacks(false, c.base)
	return c, nil
}

// snapshotExtras reads the timer's current extra latencies (non-zero entries
// only, matching the schedulers' Target convention).
func snapshotExtras(tm *timing.State) map[netlist.CellID]float64 {
	out := make(map[netlist.CellID]float64)
	for _, ff := range tm.D.FFs {
		if v := tm.ExtraLatency(ff); v != 0 {
			out[ff] = v
		}
	}
	return out
}

// compareEndpoints diffs the timer's reported endpoint slacks (both modes)
// against the oracle's full-graph recomputation under the given latencies.
func (c *Checker) compareEndpoints(tm *timing.State, extra map[netlist.CellID]float64) []string {
	var msgs []string
	oLate := c.G.EndpointSlacks(true, extra)
	oEarly := c.G.EndpointSlacks(false, extra)
	for i, ep := range tm.Endpoints() {
		id := timing.EndpointID(i)
		if tl, ol := tm.LateSlack(id), oLate[ep.Cell]; !slackEq(tl, ol, c.tol) {
			msgs = append(msgs, fmt.Sprintf("late slack at %s: timer %v, oracle %v",
				c.G.cellName(ep.Cell), tl, ol))
		}
		if te, oe := tm.EarlySlack(id), oEarly[ep.Cell]; !slackEq(te, oe, c.tol) {
			msgs = append(msgs, fmt.Sprintf("early slack at %s: timer %v, oracle %v",
				c.G.cellName(ep.Cell), te, oe))
		}
	}
	return msgs
}

func slackEq(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= tol
}

// Check validates the schedule currently applied to the timer. target is the
// scheduler-reported latency map (nil to skip the timer-vs-result diff);
// fixes are the Eq-9 cycle assignments the run recorded (nil when the
// algorithm has none, e.g. FPM).
func (c *Checker) Check(tm *timing.State, target map[netlist.CellID]float64, fixes []core.CycleFix) *Report {
	tm.Update()
	r := &Report{OK: true, WNS: math.Inf(1)}
	g := c.G
	d := g.D
	late := c.opts.Mode == timing.Late
	extra := snapshotExtras(tm)
	headroomTol := math.Max(1e-5, 10*c.tol)

	// Reported target and timer state must agree, and latencies must honor
	// the non-negativity and Eq-5 bounds.
	for _, ff := range d.FFs {
		v := tm.ExtraLatency(ff)
		if target != nil && math.Abs(v-target[ff]) > c.tol {
			r.finding("latency of %s: timer has %v, schedule reported %v",
				g.cellName(ff), v, target[ff])
		}
		if v < -c.tol {
			r.finding("negative extra latency %v on %s", v, g.cellName(ff))
		}
		if c.opts.LatencyUB != nil {
			if ub := math.Max(0, c.opts.LatencyUB(ff)); v > ub+headroomTol {
				r.finding("latency %v on %s exceeds Eq-5 bound %v", v, g.cellName(ff), ub)
			}
		}
	}

	// The timer's incrementally maintained slacks must match an independent
	// full recomputation, in both modes.
	for _, m := range c.compareEndpoints(tm, extra) {
		r.finding("post-schedule STA disagreement: %s", m)
	}

	postLate := g.EndpointSlacks(true, extra)
	postEarly := g.EndpointSlacks(false, extra)

	// Eq-11 safety: no opposite-mode endpoint may end below min(pre, 0).
	// Eq-9 cycle assignments are mandated regardless of headroom, so the
	// endpoints they degrade are exempt: in late mode a raised capture
	// degrades its own hold check; in early mode a raised launch degrades
	// the setup checks it feeds.
	fixCells := make(map[netlist.CellID]bool)
	for _, fx := range fixes {
		for _, cell := range fx.Cells {
			fixCells[cell] = true
		}
	}
	exempt := fixCells
	if !late {
		exempt = make(map[netlist.CellID]bool)
		for _, e := range g.Late {
			if fixCells[e.Launch] {
				exempt[e.Capture] = true
			}
		}
	}
	pre, post := c.preEarly, postEarly
	oppName := "hold"
	if !late {
		pre, post = c.preLate, postLate
		oppName = "setup"
	}
	for cell, ps := range post {
		if exempt[cell] {
			continue
		}
		if floor := math.Min(pre[cell], 0); ps < floor-headroomTol {
			r.finding("Eq-11 violated: %s slack at %s dropped to %v, below its floor %v",
				oppName, g.cellName(cell), ps, floor)
		}
	}

	// Eq-9: every recorded cycle edge must still sit exactly at the cycle's
	// mean weight (frozen vertices are never raised again).
	for fi, fx := range fixes {
		for _, e := range fx.Edges {
			s := g.SlackOf(e.Launch, e.Capture, e.Delay, e.Mode == timing.Late, extra)
			if math.Abs(s-fx.Mean) > headroomTol {
				r.finding("Eq-9 violated: cycle %d edge %s→%s has slack %v, mean is %v",
					fi, g.cellName(e.Launch), g.cellName(e.Capture), s, fx.Mean)
			}
		}
	}

	// Achieved worst slack in the objective mode.
	objPost := postLate
	if !late {
		objPost = postEarly
	}
	for _, s := range objPost {
		if s < r.WNS {
			r.WNS = s
		}
	}

	if c.opts.GapCheck && !math.IsInf(r.WNS, 1) {
		c.checkGap(r, extra, postLate, postEarly, fixCells)
	}
	return r
}

// checkGap compares the achieved worst slack against the full-graph LP
// optimum. Only violations count — the iterative schedulers stop once every
// check passes, so both sides are capped at zero. A shortfall must either
// vanish against the opposite-mode-safe LP or decompose into per-edge
// blocked certificates; anything else is a finding.
func (c *Checker) checkGap(r *Report, extra, postLate, postEarly map[netlist.CellID]float64, fixCells map[netlist.CellID]bool) {
	g := c.G
	d := g.D
	late := c.opts.Mode == timing.Late
	gapTol := 2 * c.tol
	headroomTol := math.Max(1e-5, 10*c.tol)

	free := g.Solve(c.base, SolveOptions{
		Late: late, LatencyUB: c.opts.LatencyUB, Tol: c.tol / 10,
	})
	r.OptFree = free.WorstSlack

	// The schedule is one feasible point of the free LP: beating the
	// certified optimum means one of the solvers is wrong.
	if !free.Capped && r.WNS > free.WorstSlack+headroomTol {
		r.finding("achieved worst slack %v beats the LP optimum %v", r.WNS, free.WorstSlack)
		return
	}

	achieved := math.Min(r.WNS, 0)
	want := 0.0
	if !free.Capped {
		want = math.Min(free.WorstSlack, 0)
	}
	r.Gap = math.Max(0, want-achieved)
	if r.Gap <= gapTol {
		r.GapExplained = true
		if want < 0 {
			r.note("optimal: worst slack %v matches the LP bound %v (design infeasible at this period)", r.WNS, free.WorstSlack)
			for _, b := range free.Binding {
				r.note("  binding: %s", b)
			}
		}
		return
	}

	// Route 1: the gap is forced by the Eq-11 hold-safety region.
	safe := g.Solve(c.base, SolveOptions{
		Late: late, SafeOpposite: true, LatencyUB: c.opts.LatencyUB, Tol: c.tol / 10,
	})
	r.OptSafe = safe.WorstSlack
	wantSafe := 0.0
	if !safe.Capped {
		wantSafe = math.Min(safe.WorstSlack, 0)
	}
	if achieved >= wantSafe-gapTol {
		r.GapExplained = true
		r.note("gap %v to the free optimum %v is forced by %s-safety floors: safe optimum is %v, achieved %v",
			r.Gap, free.WorstSlack, oppositeName(late), safe.WorstSlack, r.WNS)
		for _, b := range safe.Binding {
			r.note("  binding: %s", b)
		}
		return
	}

	// Route 2: the achieved worst slack can only improve by raising the
	// help-side vertex of every edge in the worst band (late: the capture;
	// early: the launch). The gap is explained when each such vertex is
	// provably blocked — directly (pinned, frozen, bound or opposite-mode
	// headroom exhausted), or transitively: raising it would drag another
	// band edge below the worst slack whose own help-side vertex is blocked.
	// The schedulers bound each raise by the clamped opposite-mode slack
	// (HeadroomFunc): in late mode the vertex's own hold-endpoint slack, in
	// early mode the worst setup slack among the paths it launches. A vertex
	// whose bound is at zero cannot be raised at all — including vertices
	// sitting in a pre-existing opposite-mode violation.
	oppSlack := postEarly
	if !late {
		oppSlack = make(map[netlist.CellID]float64, len(d.FFs))
		for _, ff := range d.FFs {
			oppSlack[ff] = math.Inf(1)
		}
		for _, e := range g.Late {
			if s := g.EdgeSlack(e, true, extra); s < oppSlack[e.Launch] {
				oppSlack[e.Launch] = s
			}
		}
	}
	directWhy := func(v netlist.CellID) string {
		switch {
		case d.Cells[v].Type.Kind != netlist.KindFF:
			return "its latency is pinned (port)"
		case fixCells[v]:
			return "it is frozen by an Eq-9 cycle fix"
		case c.opts.LatencyUB != nil && extra[v] >= math.Max(0, c.opts.LatencyUB(v))-headroomTol:
			return "its Eq-5 latency bound is exhausted"
		}
		if s, ok := oppSlack[v]; ok && s <= headroomTol {
			return fmt.Sprintf("its %s headroom is exhausted (%s slack %.6g)", oppositeName(late), oppositeName(late), s)
		}
		return ""
	}

	obj := g.Late
	if !late {
		obj = g.Early
	}
	band := r.WNS + headroomTol
	slacks := make([]float64, len(obj))
	blocked := make(map[netlist.CellID]string)
	for i, e := range obj {
		slacks[i] = g.EdgeSlack(e, late, extra)
		if slacks[i] > band {
			continue
		}
		for _, v := range []netlist.CellID{e.Launch, e.Capture} {
			if _, seen := blocked[v]; !seen {
				blocked[v] = directWhy(v)
			}
		}
	}
	// Transitive closure: blocked help-side vertices block the hurt-side
	// vertex of any band edge (raising the hurt side pushes the edge down
	// with no way to compensate).
	for changed := true; changed; {
		changed = false
		for i, e := range obj {
			if slacks[i] > band {
				continue
			}
			help, hurt := e.Capture, e.Launch
			if !late {
				help, hurt = e.Launch, e.Capture
			}
			if blocked[help] != "" && blocked[hurt] == "" {
				blocked[hurt] = fmt.Sprintf("raising it pushes edge %s→%s (slack %.6g) below the worst slack, and %s cannot compensate",
					g.cellName(e.Launch), g.cellName(e.Capture), slacks[i], g.cellName(help))
				changed = true
			}
		}
	}

	unexplained := 0
	for i, e := range obj {
		if slacks[i] > band {
			continue
		}
		raise := e.Capture
		if !late {
			raise = e.Launch
		}
		why := blocked[raise]
		if why == "" {
			unexplained++
			r.finding("unexplained gap: worst-band edge %s→%s sits at slack %v (LP optimum %v) but %s is free to rise",
				g.cellName(e.Launch), g.cellName(e.Capture), slacks[i], free.WorstSlack, g.cellName(raise))
			continue
		}
		r.note("edge %s→%s stays at slack %v: cannot raise %s — %s",
			g.cellName(e.Launch), g.cellName(e.Capture), slacks[i], g.cellName(raise), why)
	}
	if unexplained == 0 {
		r.GapExplained = true
		r.note("gap %v to the free optimum %v explained: every worst-band edge is blocked (safe optimum %v)",
			r.Gap, free.WorstSlack, safe.WorstSlack)
	}
}

func oppositeName(late bool) string {
	if late {
		return "hold"
	}
	return "setup"
}
