// Package sched holds the scheduler contract shared by the three clock skew
// scheduling implementations (core, iccss, fpm): one Options shape, one
// Result shape, the degenerate-input validation they all perform on entry,
// and the Scheduler interface the engine dispatches on.
//
// The concrete packages alias these types (e.g. core.Options = sched.Options)
// so every historical call site keeps compiling while all three schedulers
// expose the identical Schedule(tm, opts) (*Result, error) signature — no
// adapters needed anywhere.
package sched

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/seqgraph"
	"iterskew/internal/timing"
)

// DegenerateInputError reports an input the schedulers cannot meaningfully
// process: no sequential elements to skew, a non-positive clock period, or a
// flip-flop whose Q output drives its own D input directly (a zero-stage
// self-loop whose slack no latency assignment can move — raising the
// flip-flop shifts launch and capture together).
type DegenerateInputError struct {
	Reason string
	Cell   netlist.CellID // offending cell, netlist.NoCell for design-wide problems
}

// Error implements the error interface.
func (e *DegenerateInputError) Error() string {
	if e.Cell == netlist.NoCell {
		return "css: degenerate input: " + e.Reason
	}
	return fmt.Sprintf("css: degenerate input: %s (cell %d)", e.Reason, e.Cell)
}

// ValidateInput checks a design for the degenerate shapes that make clock
// skew scheduling meaningless, returning a *DegenerateInputError describing
// the first one found.
func ValidateInput(d *netlist.Design) error {
	if err := validatePeriod(d.Period); err != nil {
		return err
	}
	return validateShape(d)
}

// ValidateTimer is ValidateInput against a timing view's effective state:
// the design's sequential shape plus the view's (possibly what-if) clock
// period rather than the design's. All three schedulers call it on entry.
func ValidateTimer(tm TimingView) error {
	if err := validatePeriod(tm.Period()); err != nil {
		return err
	}
	return validateShape(tm.Design())
}

func validatePeriod(period float64) error {
	if !(period > 0) { // also rejects NaN
		return &DegenerateInputError{
			Reason: fmt.Sprintf("non-positive clock period %v", period),
			Cell:   netlist.NoCell,
		}
	}
	return nil
}

func validateShape(d *netlist.Design) error {
	if len(d.FFs) == 0 {
		return &DegenerateInputError{Reason: "no flip-flops to schedule", Cell: netlist.NoCell}
	}
	for _, ff := range d.FFs {
		n := d.Pins[d.FFQ(ff)].Net
		if n == netlist.NoNet {
			continue
		}
		dp := d.FFData(ff)
		for _, s := range d.Nets[n].Sinks {
			if s == dp {
				return &DegenerateInputError{Reason: "flip-flop Q drives its own D directly", Cell: ff}
			}
		}
	}
	return nil
}

// Options configures one scheduling run. It is the union of what the
// schedulers accept; fields irrelevant to a given implementation are ignored
// (see DESIGN.md's per-scheduler consumption table). The observability trio
// — Progress, Log, Recorder — and the Context/Deadline cancellation pair are
// honored by every scheduler; StallRounds by every iterative one.
type Options struct {
	// Mode selects which violation type this run optimizes (the paper's flow
	// runs Early first, then Late; §V).
	Mode timing.Mode
	// Context, when non-nil, cancels the run cooperatively: the schedulers
	// check it at round boundaries (and the timer checks it at level-bucket /
	// batch-root granularity), stop, and return a CONSISTENT partial result —
	// Result.Target always matches the latencies actually applied on the
	// timer, with propagation fully drained, so a cancelled session is a
	// usable anytime answer. Cancellation is not an error: Schedule returns
	// (result, nil) with Result.StopReason set to StopCancelled or
	// StopDeadline. nil means no cancellation.
	Context context.Context
	// Deadline, when nonzero, bounds the run's wall clock the same
	// cooperative way (Result.StopReason = StopDeadline). It composes with
	// Context: whichever fires first stops the run.
	Deadline time.Time
	// MaxRounds caps the number of update-extract rounds (cycle-handling
	// rounds included). 0 means the default of 200.
	MaxRounds int
	// Margin widens essential-edge extraction: edges with slack < Margin are
	// extracted. The paper amplifies a portion of early violations for
	// stability (§V); a small positive margin reproduces that.
	Margin float64
	// LatencyUB optionally bounds the scheduled (extra) latency per
	// flip-flop from above (Eq 5). nil means unbounded.
	LatencyUB func(ff netlist.CellID) float64
	// LatencyLB optionally forces a minimum scheduled latency per flip-flop
	// (the l_min of Eq 5): those latencies are applied before the first
	// iteration and count toward the target. nil means no lower bounds.
	LatencyLB func(ff netlist.CellID) float64
	// DisableHeadroom removes the ŝ bound of Eq (11) — only for the
	// ablation study; never use in real flows.
	DisableHeadroom bool
	// StallRounds stops the iteration after this many consecutive rounds
	// whose TNS gain is below max(1 ps, 0.01%·|TNS|) — the 1 ps absolute
	// floor keeps near-zero-TNS runs from crawling by epsilon-sized
	// increments, and the relative term scales the bar on heavily violating
	// designs (coupled headroom chains can otherwise crawl for many rounds).
	// Cycle-handling rounds refresh the TNS baseline but never count toward
	// (or trigger) the guard: freezing a cycle is structural progress even
	// when the TNS is momentarily flat. 0 means the default of 3; negative
	// disables the guard.
	StallRounds int
	// Workers sets the worker-pool width for batch extraction and incremental
	// propagation: a nonzero value is installed on the timer
	// (timing.Timer.SetWorkers) for the duration of the run and the prior
	// width is restored on return, so the schedulers' Update calls honor it
	// too. 0 keeps the timer's configured width; negative means GOMAXPROCS.
	// Results are identical at any width.
	Workers int
	// Recorder optionally instruments the run: round spans, extraction and
	// clamp counters, and per-round JSONL events (see internal/obs). nil
	// falls back to the timer's installed recorder; if that is nil too, the
	// instrumented paths cost a nil check and nothing else.
	Recorder *obs.Recorder
	// Progress, when non-nil, is called after every round with that round's
	// IterStats — a live trajectory hook that works without a Recorder.
	Progress func(IterStats)
	// Log, when non-nil, receives a one-line progress record per round plus
	// an explanation line for every termination decision (stall guard,
	// convergence, round cap), so StallRounds stops are explainable.
	Log io.Writer
}

// StallTracker implements the Options.StallRounds semantics shared by core
// and iccss: a round makes progress when its TNS gain over the previous
// round's baseline is at least max(1 ps, 0.01%·|TNS|).
// Cycle-freezing rounds refresh the baseline (Eq-9 equalization can
// redistribute slack without moving TNS, so the following round must not be
// measured against a stale pre-freeze value) but never count toward the
// guard — a frozen cycle is structural progress. A non-positive limit
// disables the guard entirely.
type StallTracker struct {
	limit int
	prev  float64
	count int
}

// NewStallTracker builds a tracker with the given consecutive-round limit
// and the TNS baseline observed before the first round.
func NewStallTracker(limit int, baselineTNS float64) *StallTracker {
	return &StallTracker{limit: limit, prev: baselineTNS}
}

// Observe folds one non-cycle round's TNS into the guard, returning the gain
// over the baseline and whether the guard has tripped.
func (s *StallTracker) Observe(tns float64) (gain float64, stop bool) {
	if s.limit <= 0 {
		return math.Inf(1), false
	}
	gain = tns - s.prev
	if gain < math.Max(1, 1e-4*math.Abs(tns)) {
		s.count++
	} else {
		s.count = 0
	}
	s.prev = tns
	return gain, s.count >= s.limit
}

// ObserveCycle refreshes the baseline after a cycle-freezing round without
// counting it.
func (s *StallTracker) ObserveCycle(tns float64) {
	if s.limit <= 0 {
		return
	}
	s.prev = tns
}

// Count reports the current consecutive low-gain round count.
func (s *StallTracker) Count() int { return s.count }

// StopReason classifies why a scheduling run ended. The zero value is
// StopConverged, matching the schedulers that terminate only by reaching
// their fixpoint (fpm's one-shot pass "converges" by construction).
type StopReason uint8

// The termination causes, in the order a healthy run prefers them.
const (
	// StopConverged: the iteration reached its fixpoint — no vertex received
	// a new increment and a forced extraction sweep found no new essential
	// edges (Alg 1 line 13).
	StopConverged StopReason = iota
	// StopStalled: the StallRounds guard fired — too many consecutive rounds
	// below the minimum TNS gain.
	StopStalled
	// StopRoundCap: Options.MaxRounds was exhausted before convergence.
	StopRoundCap
	// StopCancelled: Options.Context was cancelled mid-run.
	StopCancelled
	// StopDeadline: Options.Deadline (or the context's deadline) passed
	// mid-run.
	StopDeadline
)

// String implements fmt.Stringer.
func (r StopReason) String() string {
	switch r {
	case StopConverged:
		return "converged"
	case StopStalled:
		return "stalled"
	case StopRoundCap:
		return "round-cap"
	case StopCancelled:
		return "cancelled"
	case StopDeadline:
		return "deadline"
	}
	return fmt.Sprintf("StopReason(%d)", uint8(r))
}

// Interrupted reports whether the run was stopped from outside (cancelled or
// past a deadline) rather than by its own termination logic. Interrupted
// results are still consistent partial answers.
func (r StopReason) Interrupted() bool {
	return r == StopCancelled || r == StopDeadline
}

// Canceller resolves an Options' Context/Deadline pair into a cheap stop
// probe. The zero value (no context, no deadline) never stops. Stop is safe
// for concurrent use — the timer's batch-extraction workers call it — and is
// what the schedulers install as the timer's amortized check hook
// (timing.State.SetCheck).
type Canceller struct {
	ctx      context.Context
	deadline time.Time
}

// Canceller derives the run's stop probe from Context and Deadline.
func (o *Options) Canceller() Canceller {
	return Canceller{ctx: o.Context, deadline: o.Deadline}
}

// Active reports whether any stop condition is configured at all; inactive
// cancellers let the schedulers skip hook installation entirely, keeping
// uncancelled runs byte-identical to the pre-cancellation code path.
func (c Canceller) Active() bool {
	return c.ctx != nil || !c.deadline.IsZero()
}

// Stop reports whether the run should stop now. Safe for concurrent use.
func (c Canceller) Stop() bool {
	if c.ctx != nil && c.ctx.Err() != nil {
		return true
	}
	return !c.deadline.IsZero() && time.Now().After(c.deadline)
}

// Reason returns the StopReason to record if the run should stop now, and
// whether it should. Context cancellation maps to StopCancelled, a context
// or Options deadline to StopDeadline.
func (c Canceller) Reason() (StopReason, bool) {
	if c.ctx != nil {
		switch c.ctx.Err() {
		case context.Canceled:
			return StopCancelled, true
		case context.DeadlineExceeded:
			return StopDeadline, true
		}
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		return StopDeadline, true
	}
	return StopConverged, false
}

// IterStats records one iteration for the Fig-8 style trajectory.
type IterStats struct {
	Round     int
	WNS, TNS  float64 // mode-specific, after applying this round's latencies
	NewEdges  int     // essential edges added this round
	Raised    int     // vertices that received a positive increment
	CycleLen  int     // >0 if this round handled a cycle
	MaxInc    float64 // largest latency increment this round
	TimerPins int     // arrival pins the round's Update re-propagated; required times settle at reads, uncounted
	Clamped   int     // vertices whose Eq-14 need was clamped by l^max (Eq 11)
}

// CycleFix records one Eq-9 cycle assignment: the cycle's vertices in cycle
// order, value copies of its sequential edges at freeze time (Edges[i] runs
// Cells[i]→Cells[i+1]; the last closes back to Cells[0]), and the mean weight
// every edge's slack is balanced to. Cycle vertices are frozen when the fix
// is applied and never raised again, so the invariant "each recorded edge's
// slack equals Mean" must hold at the end of the run — internal/oracle
// checks exactly that.
type CycleFix struct {
	Cells []netlist.CellID
	Edges []timing.SeqEdge
	Mean  float64
}

// Result is the outcome of a scheduling run — the union of what the three
// schedulers report. Fields a given implementation does not produce stay at
// their zero values (fpm fills only Target/EdgesExtracted/Elapsed/Graph;
// CriticalVerts and ConstraintExts are iccss-specific).
type Result struct {
	// Target holds the scheduled latency l* per flip-flop (only entries > 0).
	Target map[netlist.CellID]float64
	// Rounds is the number of update-extract rounds executed (the paper's k
	// plus cycle-handling rounds).
	Rounds int
	// StopReason records why the run ended. Interrupted() reasons
	// (cancelled, deadline) still come with a consistent partial Target:
	// the latencies are applied on the timer and propagation is drained.
	StopReason StopReason
	// Cycles is the number of cycles encountered and fixed.
	Cycles int
	// CycleFixes records every Eq-9 mean-weight assignment, for the
	// invariant checker.
	CycleFixes []CycleFix
	// EdgesExtracted is the number of sequential edges added to the partial
	// graph (after dedup).
	EdgesExtracted int
	// CriticalVerts counts vertices whose full fanout was extracted (iccss).
	CriticalVerts int
	// ConstraintExts counts constraint-edge callback invocations (iccss).
	ConstraintExts int
	// PerIter is the per-round trajectory (core scheduler only).
	PerIter []IterStats
	// Elapsed is the wall-clock scheduling time.
	Elapsed time.Duration
	// Graph is the final partial sequential graph (exposed for inspection
	// and tests).
	Graph *seqgraph.Graph
}

// TimingView is the slack/extract/apply-latency surface the schedulers
// consume. *timing.State (= *timing.Timer) is the trivial single-corner
// implementation; timing.CornerSet joins several states over one shared
// graph into a worst-case envelope, which turns every scheduler written
// against this interface into a multi-corner scheduler for free.
//
// The contract mirrors the State methods exactly (see internal/timing for
// per-method semantics); the only requirements beyond a single state are
// the envelope laws a multi-corner implementation must keep:
//
//   - Slack/EarlySlack/LaunchLateSlack/WNSTNS report the worst corner
//     (per-endpoint minimum), so "nonnegative everywhere" means "meets
//     every corner";
//   - ViolatedEndpoints is the union of violating endpoints;
//   - the Extract* methods return edges whose EdgeSlack, evaluated on the
//     view, reproduces each edge's slack in its corner of origin;
//   - AddExtraLatency/Update apply to every corner, and DOut is the
//     largest (most conservative for Eq 8) over corners.
type TimingView interface {
	// Identity and shape.
	Design() *netlist.Design
	Period() float64
	Endpoints() []timing.Endpoint
	EndpointOf(c netlist.CellID) timing.EndpointID

	// Slack queries (worst corner).
	Slack(id timing.EndpointID, m timing.Mode) float64
	EarlySlack(id timing.EndpointID) float64
	// LaunchLateSlack is the one required-time read: the first call after
	// an Update drains the required times that Update left queued.
	LaunchLateSlack(c netlist.CellID) float64
	ViolatedEndpoints(m timing.Mode, dst []timing.EndpointID) []timing.EndpointID
	WNSTNS(m timing.Mode) (wns, tns float64)
	EdgeSlack(e timing.SeqEdge) float64

	// Essential-edge extraction (union over corners).
	ExtractEssentialBatch(endpoints []timing.EndpointID, m timing.Mode, margin float64, workers int, dst []timing.SeqEdge) []timing.SeqEdge
	ExtractAllFrom(launch netlist.CellID, m timing.Mode, dst []timing.SeqEdge) []timing.SeqEdge
	ExtractAllInto(capture netlist.CellID, m timing.Mode, dst []timing.SeqEdge) []timing.SeqEdge
	ExtractAllFromBatch(launches []netlist.CellID, m timing.Mode, workers int, dst []timing.SeqEdge) []timing.SeqEdge
	ExtractAllIntoBatch(captures []netlist.CellID, m timing.Mode, workers int, dst []timing.SeqEdge) []timing.SeqEdge

	// Latency application and propagation.
	DOut(c netlist.CellID) float64
	BaseLatency(c netlist.CellID) float64
	ExtraLatency(c netlist.CellID) float64
	AddExtraLatency(c netlist.CellID, delta float64)
	Update() int

	// Run plumbing the schedulers install for the duration of a run.
	SetWorkers(n int)
	Workers() int
	SetCheck(fn func() bool)
	Check() func() bool
	Recorder() *obs.Recorder
}

// CornerView is the optional multi-corner extension of TimingView. The
// schedulers type-assert for it when emitting round events so streams and
// metrics gain a per-corner WNS/TNS breakdown; single-corner states simply
// don't implement it.
type CornerView interface {
	TimingView
	// NumCorners reports how many corners the view joins (≥ 1).
	NumCorners() int
	// CornerName returns corner i's label.
	CornerName(i int) string
	// CornerWNSTNS reports corner i's own (non-envelope) WNS/TNS.
	CornerWNSTNS(i int, m timing.Mode) (wns, tns float64)
	// UnionDiffRounds counts extraction calls so far in which at least two
	// corners disagreed on the essential edge set — the proof that the
	// union path did real multi-corner work.
	UnionDiffRounds() int
}

// CornerStats snapshots every corner of a view for a round event, or nil if
// the view is single-corner.
func CornerStats(tm TimingView, m timing.Mode) []obs.CornerStat {
	cv, ok := tm.(CornerView)
	if !ok {
		return nil
	}
	out := make([]obs.CornerStat, cv.NumCorners())
	for i := range out {
		wns, tns := cv.CornerWNSTNS(i, m)
		out[i] = obs.CornerStat{Name: cv.CornerName(i), WNS: wns, TNS: tns}
	}
	return out
}

// Scheduler is the common contract of the three CSS implementations. The
// computed latencies are left applied on the view as predictive (extra)
// latencies; degenerate inputs return a *DegenerateInputError.
type Scheduler interface {
	Schedule(tm TimingView, opts Options) (*Result, error)
}

// Func adapts a plain scheduling function to the Scheduler interface —
// core.Schedule, iccss.Schedule and fpm.Schedule all convert directly.
type Func func(tm TimingView, opts Options) (*Result, error)

// Schedule implements Scheduler.
func (f Func) Schedule(tm TimingView, opts Options) (*Result, error) {
	return f(tm, opts)
}
