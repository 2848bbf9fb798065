package sched

import (
	"context"
	"fmt"
	"time"

	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/seqgraph"
	"iterskew/internal/timing"
)

// Algo names a scheduler to the run scaffold.
type Algo struct {
	// Name is the algo field of the run's round events.
	Name string
	// Tag starts every log line, followed by the run's mode in brackets.
	Tag string
	// Hook installs the Context/Deadline probe as the view's check hook for
	// the run, so timer work inside a round stops early too.
	Hook bool
}

// Run is the scaffold one Schedule call runs in, so the scheduler packages
// keep only their algorithms. Begin validates the view, resolves the option
// defaults, picks the recorder and request ID, opens the css.schedule span
// and installs the stop hook; Round reports each finished round; Finish
// drains an interrupted run, logs how the run stopped, closes the span and
// restores the caller's hook.
type Run struct {
	// Res is the result under construction; Res.Graph is the run's partial
	// sequential graph.
	Res *Result
	// Rec is Options.Recorder, or the view's recorder when that is nil. It
	// may be nil: every obs call on it is then a no-op.
	Rec *obs.Recorder

	tm     TimingView
	opts   *Options
	algo   Algo
	req    string
	start  time.Time
	span   obs.Span
	hooked bool
	prev   func() bool // the caller's hook, restored by Finish
}

// Begin starts a run of algo on tm. It resolves opts' defaults in place
// (MaxRounds 200, StallRounds 3) and returns a *DegenerateInputError for a
// view no scheduler can process. The stop hook is installed only when algo
// asks for it and a Context or Deadline is set, so the timer work of a run
// that cannot be cancelled probes no hook.
func Begin(tm TimingView, opts *Options, algo Algo) (*Run, error) {
	start := time.Now()
	if err := ValidateTimer(tm); err != nil {
		return nil, err
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 200
	}
	if opts.StallRounds == 0 {
		opts.StallRounds = 3
	}
	r := &Run{
		Res:   &Result{Target: map[netlist.CellID]float64{}, Graph: seqgraph.New()},
		Rec:   opts.Recorder,
		tm:    tm,
		opts:  opts,
		algo:  algo,
		req:   obs.RequestID(opts.Context),
		start: start,
	}
	if r.Rec == nil {
		r.Rec = tm.Recorder()
	}
	r.span = r.Rec.StartSpan(obs.SpanSchedule).WithReq(r.req)
	if algo.Hook && (opts.Context != nil || !opts.Deadline.IsZero()) {
		r.hooked, r.prev = true, tm.Check()
		tm.SetCheck(r.stop)
	}
	return r, nil
}

// Span opens a span of kind k on the run's recorder, tagged with the run's
// request ID.
func (r *Run) Span(k obs.SpanKind) obs.Span { return r.Rec.StartSpan(k).WithReq(r.req) }

// Logf writes one line to Options.Log: the run's tag and mode, e.g.
// "css[late]", followed directly by the formatted text.
func (r *Run) Logf(format string, args ...any) {
	if r.opts.Log != nil {
		fmt.Fprintf(r.opts.Log, "%s[%v]"+format+"\n", append([]any{r.algo.Tag, r.opts.Mode}, args...)...)
	}
}

// AddEdges adds extracted edges to the run's graph, the design's I/O ports
// becoming supernodes, and returns how many of them were new.
func (r *Run) AddEdges(edges []timing.SeqEdge) int {
	isPort, added := r.tm.Design().IsPort, 0
	for _, se := range edges {
		if _, isNew := r.Res.Graph.AddSeqEdge(se, isPort); isNew {
			added++
		}
	}
	return added
}

// stop is the run's stop hook: it reports whether Options.Context or
// Deadline has fired. The timer probes it between Update's level buckets
// and before each batch-extraction root; a CornerSet's per-corner Updates
// probe it concurrently.
func (r *Run) stop() bool {
	if ctx := r.opts.Context; ctx != nil && ctx.Err() != nil {
		return true
	}
	return r.expired()
}

func (r *Run) expired() bool {
	return !r.opts.Deadline.IsZero() && time.Now().After(r.opts.Deadline)
}

// Interrupted reports whether Options.Context or Deadline has fired; if so
// it records why as Res.StopReason: StopCancelled for a cancelled context,
// StopDeadline for a passed context or Options deadline.
func (r *Run) Interrupted() bool {
	if ctx := r.opts.Context; ctx != nil {
		switch ctx.Err() {
		case context.Canceled:
			r.Res.StopReason = StopCancelled
			return true
		case context.DeadlineExceeded:
			r.Res.StopReason = StopDeadline
			return true
		}
	}
	if r.expired() {
		r.Res.StopReason = StopDeadline
		return true
	}
	return false
}

// Apply adds latency l to cell on the view and to Res.Target, and counts it
// in st's Raised and MaxInc.
func (r *Run) Apply(cell netlist.CellID, l float64, st *IterStats) {
	r.tm.AddExtraLatency(cell, l)
	r.Res.Target[cell] += l
	st.Raised++
	if l > st.MaxInc {
		st.MaxInc = l
	}
}

// Retime propagates the latencies applied so far and records the round's
// TimerPins, WNS and TNS in st.
func (r *Run) Retime(st *IterStats) {
	st.TimerPins = r.tm.Update()
	st.WNS, st.TNS = r.tm.WNSTNS(r.opts.Mode)
}

// Round reports one finished round: the round counters, the graph gauges
// and a "round" event on the recorder (none of which costs anything without
// one), then Options.Progress. stall is the stall guard's count after the
// round.
func (r *Run) Round(st IterStats, stall int) {
	if rec := r.Rec; rec != nil {
		g := r.Res.Graph
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
			Type: "round", Req: r.req, Algo: r.algo.Name, Mode: r.opts.Mode.String(),
			Round: st.Round, WNS: st.WNS, TNS: st.TNS,
			NewEdges: st.NewEdges, Raised: st.Raised, CycleLen: st.CycleLen,
			MaxInc: st.MaxInc, TimerPins: st.TimerPins, Stall: stall,
			ElapsedMS: float64(time.Since(r.start).Nanoseconds()) / 1e6,
			Corners:   cornerStats(r.tm, r.opts.Mode),
		})
	}
	if r.opts.Progress != nil {
		r.opts.Progress(st)
	}
}

// Stall ends the run on the StallRounds guard after round: it records
// StopStalled and logs the decision. count is the guard's count.
func (r *Run) Stall(count, round int) {
	r.Res.StopReason = StopStalled
	r.Logf(" stall guard: %d consecutive rounds with TNS gain < max(1, 0.01%%·|TNS|) — stopping at round %d (StallRounds=%d)",
		count, round, r.opts.StallRounds)
}

// Finish ends the run and returns its result. When the run's hook stopped
// it, an Update or extraction may have returned with the propagation half
// drained; Finish completes it with the hook off, so Res.Target matches the
// applied latencies and a further Update is a no-op — the partial result is
// a usable anytime answer. It then logs a round-cap stop, closes the
// css.schedule span and puts back the hook the caller had installed.
func (r *Run) Finish() *Result {
	res := r.Res
	if r.hooked && res.StopReason.Interrupted() {
		r.tm.SetCheck(nil)
		r.tm.Update()
		r.Logf(" stopping: %s after round %d — returning consistent partial result", res.StopReason, res.Rounds)
	} else if res.StopReason == StopRoundCap {
		r.Logf(" stopping: round cap reached (MaxRounds=%d)", r.opts.MaxRounds)
	}
	res.EdgesExtracted = len(res.Graph.Edges)
	res.Elapsed = time.Since(r.start)
	r.span.EndArg2("rounds", int64(res.Rounds), "edges", int64(res.EdgesExtracted))
	if r.hooked {
		r.tm.SetCheck(r.prev)
	}
	return res
}
