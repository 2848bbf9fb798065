package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"iterskew"
	"iterskew/internal/netlist"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one op share Op; Parent is 0 for the op's root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps one traced pass's spans and exact counts in memory. A nil
// *tracer records nothing, so the same code paths run untraced.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu     sync.Mutex
	spans  []span
	ids    map[string]int64 // "op/name" → span ID, for parents in other goroutines
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), ids: map[string]int64{}, counts: map[string]float64{}}
}

func (t *tracer) begin(op, name string, parent int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.nextID.Add(1), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.epoch))}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// register publishes an open span's ID so that spans recorded on other
// goroutines of the same op can name it as their parent.
func (t *tracer) register(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ids[s.Op+"/"+s.Name] = s.ID
	t.mu.Unlock()
}

func (t *tracer) lookup(op, name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ids[op+"/"+name]
}

// add accumulates an exact count.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// A self-time tolerance is how far below zero a span's self time (its
// duration minus its children's) may fall, given the op's wall time; within
// it, an op's self times sum to its wall time. Spans timed around nested
// calls (flow, service) never exceed their parent but by clock granularity.
// The ingest layers are re-executed after the upload: on a shared 2-vCPU
// host one execution of the same parse, hash or compile can take half the
// op longer than another, so their tolerance checks the attribution of the
// spans rather than the agreement of the two executions.
func nestedTolMS(wallMS float64) float64 { return 0.01 + 0.001*wallMS }

func reexecTolMS(wallMS float64) float64 { return 2 + 0.75*wallMS }

// ledger sums one workload's traced passes by span name.
type ledger struct {
	ops, cycles int
	dur, self   map[string]float64 // Σ span duration and self time, ms
	counts      map[string]float64
}

func newLedger() *ledger {
	return &ledger{dur: map[string]float64{}, self: map[string]float64{}, counts: map[string]float64{}}
}

// absorb adds one pass's spans and counts. Each op's spans must form one
// tree whose self times sum to the root's duration; an op that does not is
// left out of the sums and reported.
func (l *ledger) absorb(t *tracer, cycles int, tol func(wallMS float64) float64) []error {
	byOp := map[string][]span{}
	for _, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	var errs []error
	for op, spans := range byOp {
		self, err := selfTimes(spans, tol)
		if err != nil {
			errs = append(errs, fmt.Errorf("op %s: %w", op, err))
			continue
		}
		for i, s := range spans {
			l.dur[s.Name] += s.ms()
			l.self[s.Name] += self[i]
		}
		l.ops++
	}
	for k, v := range t.counts {
		l.counts[k] += v
	}
	l.cycles += cycles
	return errs
}

// selfTimes returns each span's duration minus its children's, checking
// that the spans form one tree and that no self time is below -tol of the
// root's duration.
func selfTimes(spans []span, tolMS func(float64) float64) ([]float64, error) {
	var root *span
	index := map[int64]int{}
	children := make([]float64, len(spans))
	for i := range spans {
		index[spans[i].ID] = i
		if spans[i].Parent == 0 {
			if root != nil {
				return nil, fmt.Errorf("two root spans, %s and %s", root.Name, spans[i].Name)
			}
			root = &spans[i]
		}
	}
	if root == nil {
		return nil, fmt.Errorf("no root span")
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := index[s.Parent]
		if !ok {
			return nil, fmt.Errorf("span %s has a parent outside the op", s.Name)
		}
		children[p] += s.ms()
	}
	tol := tolMS(root.ms())
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.ms() - children[i]
		if self[i] < -tol {
			return nil, fmt.Errorf("span %s self time %.3f ms is below -%.3f ms", s.Name, self[i], tol)
		}
	}
	return self, nil
}

// perOp is a span name's summed duration per op, in ms.
func (l *ledger) perOp(name string) float64 { return ratio(l.dur[name], float64(l.ops)) }

// selfPerOp is a span name's summed self time per op, in ms.
func (l *ledger) selfPerOp(name string) float64 { return ratio(l.self[name], float64(l.ops)) }

// perCycle is an exact count per cycle of the op list.
func (l *ledger) perCycle(name string) float64 { return ratio(l.counts[name], float64(l.cycles)) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes every traced pass's spans as JSON lines.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// counters sums the timer's own work counters over every state behind a
// view: one for a single-corner Timer, one per corner for a CornerSet.
func counters(tm iterskew.TimingView) timing.Counters {
	switch v := tm.(type) {
	case *iterskew.Timer:
		return v.Stats
	case *iterskew.CornerSet:
		var c timing.Counters
		for i := 0; i < v.NumCorners(); i++ {
			s := v.State(i).Stats
			c.ForwardPinVisits += s.ForwardPinVisits
			c.BackwardPinVisits += s.BackwardPinVisits
			c.IncrementalSeeds += s.IncrementalSeeds
			c.ExtractedEdges += s.ExtractedEdges
			c.ExtractArcVisits += s.ExtractArcVisits
		}
		return c
	}
	return timing.Counters{}
}

func pins(before, after timing.Counters) float64 {
	return float64(after.ForwardPinVisits - before.ForwardPinVisits + after.BackwardPinVisits - before.BackwardPinVisits)
}

// tracedView decorates the timing view a scheduler runs on. It times the
// coarse timer calls (Update, Extract*, WNSTNS, ViolatedEndpoints) as child
// spans of the scheduler's span and forwards every other call untimed.
type tracedView struct {
	iterskew.TimingView
	t      *tracer
	op     string
	parent int64
	update string // span name of Update: single-corner or corner-set
}

// wrapView returns tm decorated for tracing, offering sched.CornerView
// exactly when tm does. A nil tracer returns tm itself.
func wrapView(tm iterskew.TimingView, t *tracer, op string, parent int64) iterskew.TimingView {
	if t == nil {
		return tm
	}
	v := &tracedView{TimingView: tm, t: t, op: op, parent: parent, update: "timing.update"}
	if cv, ok := tm.(sched.CornerView); ok {
		v.update = "timing.cornerset_update"
		return &tracedCornerView{tracedView: v, cv: cv}
	}
	return v
}

func (v *tracedView) Update() int {
	before := counters(v.TimingView)
	s := v.t.begin(v.op, v.update, v.parent)
	n := v.TimingView.Update()
	v.t.end(s)
	after := counters(v.TimingView)
	v.t.add("timing.update_calls", 1)
	v.t.add("timing.update_pins", pins(before, after))
	return n
}

func (v *tracedView) extracted(s span, dst, out []timing.SeqEdge) []timing.SeqEdge {
	v.t.end(s)
	v.t.add("timing.extract_calls", 1)
	v.t.add("timing.extract_edges", float64(len(out)-len(dst)))
	return out
}

func (v *tracedView) ExtractEssentialBatch(eps []timing.EndpointID, m timing.Mode, margin float64, workers int, dst []timing.SeqEdge) []timing.SeqEdge {
	s := v.t.begin(v.op, "timing.extract", v.parent)
	return v.extracted(s, dst, v.TimingView.ExtractEssentialBatch(eps, m, margin, workers, dst))
}

func (v *tracedView) ExtractAllFrom(launch netlist.CellID, m timing.Mode, dst []timing.SeqEdge) []timing.SeqEdge {
	s := v.t.begin(v.op, "timing.extract", v.parent)
	return v.extracted(s, dst, v.TimingView.ExtractAllFrom(launch, m, dst))
}

func (v *tracedView) ExtractAllInto(capture netlist.CellID, m timing.Mode, dst []timing.SeqEdge) []timing.SeqEdge {
	s := v.t.begin(v.op, "timing.extract", v.parent)
	return v.extracted(s, dst, v.TimingView.ExtractAllInto(capture, m, dst))
}

func (v *tracedView) ExtractAllFromBatch(launches []netlist.CellID, m timing.Mode, workers int, dst []timing.SeqEdge) []timing.SeqEdge {
	s := v.t.begin(v.op, "timing.extract", v.parent)
	return v.extracted(s, dst, v.TimingView.ExtractAllFromBatch(launches, m, workers, dst))
}

func (v *tracedView) ExtractAllIntoBatch(captures []netlist.CellID, m timing.Mode, workers int, dst []timing.SeqEdge) []timing.SeqEdge {
	s := v.t.begin(v.op, "timing.extract", v.parent)
	return v.extracted(s, dst, v.TimingView.ExtractAllIntoBatch(captures, m, workers, dst))
}

func (v *tracedView) WNSTNS(m timing.Mode) (float64, float64) {
	s := v.t.begin(v.op, "timing.slack_scan", v.parent)
	wns, tns := v.TimingView.WNSTNS(m)
	v.t.end(s)
	v.t.add("timing.slack_scan_calls", 1)
	return wns, tns
}

func (v *tracedView) ViolatedEndpoints(m timing.Mode, dst []timing.EndpointID) []timing.EndpointID {
	s := v.t.begin(v.op, "timing.slack_scan", v.parent)
	out := v.TimingView.ViolatedEndpoints(m, dst)
	v.t.end(s)
	v.t.add("timing.slack_scan_calls", 1)
	return out
}

// tracedCornerView is tracedView over a multi-corner view; the corner
// queries are forwarded untimed.
type tracedCornerView struct {
	*tracedView
	cv sched.CornerView
}

func (v *tracedCornerView) NumCorners() int         { return v.cv.NumCorners() }
func (v *tracedCornerView) CornerName(i int) string { return v.cv.CornerName(i) }
func (v *tracedCornerView) UnionDiffRounds() int    { return v.cv.UnionDiffRounds() }
func (v *tracedCornerView) CornerWNSTNS(i int, m timing.Mode) (float64, float64) {
	return v.cv.CornerWNSTNS(i, m)
}

// probe holds the tracer of the traced pass in progress on an instrumented
// daemon; between passes it holds nil and the instrumentation only forwards.
type probe struct{ cur atomic.Pointer[tracer] }

// spanKey carries the handler span's ID from the handler wrapper to the
// scheduler, through the request context the daemon hands to each job.
type spanKey struct{}

// handler wraps the daemon's HTTP surface: each request becomes a
// serve.handler span of the op named by its X-Request-Id.
func (p *probe) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := p.cur.Load()
		if t == nil {
			h.ServeHTTP(w, r)
			return
		}
		op := r.Header.Get("X-Request-Id")
		s := t.begin(op, "serve.handler", t.lookup(op, "op"))
		t.register(s)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, s.ID)))
		t.end(s)
	})
}

// schedulers returns the overrides of the daemon's "core", "iccss" and
// "fpm" schedulers: each runs the real scheduler, over a tracedView while a
// pass is traced.
func (p *probe) schedulers() map[string]iterskew.Scheduler {
	return map[string]iterskew.Scheduler{
		"core":  &tracedScheduler{p: p, name: "core", run: iterskew.ScheduleSkew},
		"iccss": &tracedScheduler{p: p, name: "iccss", run: iterskew.ScheduleICCSS},
		"fpm":   &tracedScheduler{p: p, name: "fpm", run: iterskew.ScheduleFPM},
	}
}

type tracedScheduler struct {
	p    *probe
	name string
	run  func(iterskew.TimingView, iterskew.ScheduleOptions) (*iterskew.ScheduleResult, error)
}

func (s *tracedScheduler) Schedule(tm iterskew.TimingView, opts iterskew.ScheduleOptions) (*iterskew.ScheduleResult, error) {
	t := s.p.cur.Load()
	if t == nil {
		return s.run(tm, opts)
	}
	var op string
	var parent int64
	if ctx := opts.Context; ctx != nil {
		op = iterskew.RequestID(ctx)
		parent, _ = ctx.Value(spanKey{}).(int64)
	}
	sp := t.begin(op, s.name+".schedule", parent)
	before := counters(tm)
	res, err := s.run(wrapView(tm, t, op, sp.ID), opts)
	after := counters(tm)
	t.end(sp)
	if err == nil {
		t.add(s.name+".rounds", float64(res.Rounds))
		t.add(s.name+".edges", float64(res.EdgesExtracted))
		t.add("timing.fwd_pins.css", float64(after.ForwardPinVisits-before.ForwardPinVisits))
		t.add("timing.bwd_pins.css", float64(after.BackwardPinVisits-before.BackwardPinVisits))
		t.add("timing.extract_arcs.css", float64(after.ExtractArcVisits-before.ExtractArcVisits))
	}
	return res, err
}
