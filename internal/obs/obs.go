// Package obs is the repo's zero-dependency instrumentation layer: live
// metrics, phase tracing and structured events for the update-extract loop.
//
// The package is built around one rule: with no Recorder installed, every
// hook in a hot path must cost a nil check and nothing else — no allocation,
// no time.Now, no atomic traffic. All Recorder methods are therefore safe
// (and free) on a nil receiver, so instrumented code holds a plain
// `*obs.Recorder` field that defaults to nil.
//
// A Recorder bundles three independently enabled facilities:
//
//   - metrics: fixed-enum atomic counters and gauges plus per-span-kind
//     duration histograms, always on once a Recorder exists (they are cheap);
//   - tracing (EnableTrace): spans are additionally buffered as Chrome
//     trace_event records and serialized by WriteTrace for
//     chrome://tracing / Perfetto;
//   - events (EnableEvents): structured JSONL records (one Event per line)
//     for per-round IterStats-style trajectories consumed by cmd/iterplot.
//
// The hot-path surfaces (timing.State.Update, batch extraction) use the
// enum-keyed Span/Add calls; coarse orchestration layers (internal/flow) use
// NamedSpan and PhaseSpan, which may allocate — they run a handful of times
// per scheduling run.
package obs

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Counter enumerates the allocation-free counters. Hot paths index the
// Recorder's atomic array directly with these, so adding a sample is one
// atomic add — no map lookups, no interned strings.
type Counter int

// The counter set, roughly one group per instrumented subsystem.
const (
	// Timer incremental propagation.
	CtrTimerUpdates     Counter = iota // State.Update calls
	CtrTimerPins                       // pins re-propagated: arrivals by Update, required times at the first launch-slack read
	CtrTimerDirtyFFs                   // dirty flip-flops drained by Update
	CtrTimerDirtyCells                 // dirty cells drained by Update
	CtrTimerLevels                     // non-empty level buckets swept
	CtrTimerFullUpdates                // FullUpdate calls

	// Batch sequential-edge extraction.
	CtrExtractBatches // batch extraction calls
	CtrExtractRoots   // trace roots across all batches
	CtrExtractEdges   // sequential edges returned (pre-dedup)

	// Scheduling (core + iccss).
	CtrRounds         // update-extract rounds executed
	CtrRoundEdges     // essential edges added to the partial graph
	CtrRaised         // vertices that received a positive increment
	CtrCyclesFrozen   // Eq-9 mean-weight cycle assignments
	CtrClampsEq11     // increments clamped by the l^max bound (Eq 11 / Eq 14)
	CtrConstraintExts // IC-CSS+ constraint-edge callback invocations
	CtrCriticalVerts  // IC-CSS+ critical vertices fully extracted

	// Compiled-graph cache (engine.Cache).
	CtrGraphCacheHits   // cache lookups served from a resident graph
	CtrGraphCacheMisses // cache lookups that required a compile/decode
	CtrGraphCacheEvicts // graphs evicted to stay inside the byte budget

	// CSS-as-a-service daemon (internal/serve).
	CtrServeUploads   // netlist uploads accepted (compile or cache hit)
	CtrServeJobs      // scheduling jobs completed
	CtrServeRejected  // requests refused with 429 (all session slots busy)
	CtrServeCancelled // jobs stopped early by client disconnect or timeout
	CtrServeStreams   // jobs that streamed round progress as JSONL

	numCounters
)

var counterNames = [numCounters]string{
	CtrTimerUpdates:     "timer_updates",
	CtrTimerPins:        "timer_pins",
	CtrTimerDirtyFFs:    "timer_dirty_ffs",
	CtrTimerDirtyCells:  "timer_dirty_cells",
	CtrTimerLevels:      "timer_levels",
	CtrTimerFullUpdates: "timer_full_updates",
	CtrExtractBatches:   "extract_batches",
	CtrExtractRoots:     "extract_roots",
	CtrExtractEdges:     "extract_edges",
	CtrRounds:           "rounds",
	CtrRoundEdges:       "round_edges",
	CtrRaised:           "raised",
	CtrCyclesFrozen:     "cycles_frozen",
	CtrClampsEq11:       "clamps_eq11",
	CtrConstraintExts:   "constraint_exts",
	CtrCriticalVerts:    "critical_verts",
	CtrGraphCacheHits:   "graph_cache_hits",
	CtrGraphCacheMisses: "graph_cache_misses",
	CtrGraphCacheEvicts: "graph_cache_evicts",
	CtrServeUploads:     "serve_uploads",
	CtrServeJobs:        "serve_jobs",
	CtrServeRejected:    "serve_rejected",
	CtrServeCancelled:   "serve_cancelled",
	CtrServeStreams:     "serve_streams",
}

// String returns the counter's snake_case name (also its expvar key).
func (c Counter) String() string { return counterNames[c] }

// Gauge enumerates the last-value metrics.
type Gauge int

// The gauge set.
const (
	GaugeGraphVerts    Gauge = iota // partial sequential graph vertex count
	GaugeGraphEdges                 // partial sequential graph edge count
	GaugeCacheBytes                 // resident compiled-graph cache footprint
	GaugeCacheGraphs                // resident compiled-graph count
	GaugeServeInFlight              // admitted service requests currently running

	numGauges
)

var gaugeNames = [numGauges]string{
	GaugeGraphVerts:    "graph_verts",
	GaugeGraphEdges:    "graph_edges",
	GaugeCacheBytes:    "cache_bytes",
	GaugeCacheGraphs:   "cache_graphs",
	GaugeServeInFlight: "serve_in_flight",
}

// String returns the gauge's snake_case name.
func (g Gauge) String() string { return gaugeNames[g] }

// PhaseStat is one coarse phase's accumulated wall time and allocation count
// (see Recorder.PhaseSpan). Mallocs is the runtime's object-allocation
// delta, not bytes.
type PhaseStat struct {
	Name    string  `json:"name"`
	WallSec float64 `json:"wall_s"`
	Mallocs uint64  `json:"mallocs"`
	Count   int64   `json:"count"`
}

// Recorder is the instrumentation hub threaded through the timer, the
// schedulers and the flow driver. The zero value is not useful — construct
// with NewRecorder — but a nil *Recorder is: every method no-ops.
//
// All methods are safe for concurrent use.
type Recorder struct {
	counters [numCounters]paddedInt64
	gauges   [numGauges]paddedInt64
	hists    [numSpanKinds]Histogram

	tracer *Tracer    // non-nil once EnableTrace was called
	events *EventSink // non-nil once EnableEvents was called

	mu     sync.Mutex
	phase  string // current coarse phase label, stamped onto events
	req    string // default request ID stamped onto events without one
	phases map[string]*phaseAcc

	// Labeled Prometheus families (promtext.go): registration order for
	// deterministic exposition, plus a by-name index for get-or-create.
	labeled       []any
	labeledByName map[string]any
}

// paddedInt64 spaces the per-counter atomics a cache line apart so unrelated
// counters bumped from concurrent sessions' goroutines don't false-share.
type paddedInt64 struct {
	v int64
	_ [56]byte
}

type phaseAcc struct {
	wall    time.Duration
	mallocs uint64
	count   int64
}

// NewRecorder returns a metrics-only Recorder: counters, gauges and duration
// histograms are live; tracing and events are off until enabled.
func NewRecorder() *Recorder {
	return &Recorder{phases: map[string]*phaseAcc{}}
}

// EnableTrace attaches a Chrome trace_event buffer; spans recorded after
// this call appear in WriteTrace output. Call before handing the Recorder to
// instrumented code.
func (r *Recorder) EnableTrace() *Recorder {
	r.tracer = newTracer()
	return r
}

// Add adds delta to a counter. No-op on a nil Recorder.
func (r *Recorder) Add(c Counter, delta int64) {
	if r == nil {
		return
	}
	atomicAdd(&r.counters[c].v, delta)
}

// Counter returns a counter's current value (0 on a nil Recorder).
func (r *Recorder) Counter(c Counter) int64 {
	if r == nil {
		return 0
	}
	return atomicLoad(&r.counters[c].v)
}

// SetGauge stores a gauge's last value. No-op on a nil Recorder.
func (r *Recorder) SetGauge(g Gauge, v int64) {
	if r == nil {
		return
	}
	atomicStore(&r.gauges[g].v, v)
}

// Gauge returns a gauge's last stored value (0 on a nil Recorder).
func (r *Recorder) Gauge(g Gauge) int64 {
	if r == nil {
		return 0
	}
	return atomicLoad(&r.gauges[g].v)
}

// Hist returns a snapshot of the duration histogram for one span kind.
func (r *Recorder) Hist(k SpanKind) HistSnapshot {
	if r == nil {
		return HistSnapshot{}
	}
	return r.hists[k].Snapshot()
}

// SetPhase stamps the coarse phase label copied onto subsequently emitted
// events ("early-css", "late-opt", ...). No-op on a nil Recorder.
func (r *Recorder) SetPhase(p string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.phase = p
	r.mu.Unlock()
}

// SetReq sets the default request ID stamped onto subsequently emitted
// events that don't carry their own — the per-request recorder of a
// streamed service job sets it once so every round event lands with the
// request's `req` field. No-op on a nil Recorder.
func (r *Recorder) SetReq(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.req = id
	r.mu.Unlock()
}

// Req returns the default request ID ("" when unset or on a nil Recorder).
func (r *Recorder) Req() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.req
}

// Phase returns the current coarse phase label.
func (r *Recorder) Phase() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.phase
}

// PhaseSpan opens a coarse accounting phase: it sets the phase label, opens
// a named trace span, and snapshots the runtime allocation counter. The
// returned func closes the span and folds wall time and allocation delta
// into the per-phase totals reported by Phases. Unlike the enum-keyed spans
// this reads runtime.MemStats, so reserve it for flow-level phases (a
// handful per run, not per round).
func (r *Recorder) PhaseSpan(name string) func() {
	if r == nil {
		return func() {}
	}
	r.SetPhase(name)
	sp := r.NamedSpan(name)
	m0 := mallocCount()
	t0 := time.Now()
	return func() {
		wall := time.Since(t0)
		dm := mallocCount() - m0
		sp.End()
		r.mu.Lock()
		acc := r.phases[name]
		if acc == nil {
			acc = &phaseAcc{}
			r.phases[name] = acc
		}
		acc.wall += wall
		acc.mallocs += dm
		acc.count++
		r.mu.Unlock()
	}
}

// Phases returns the accumulated coarse-phase breakdown, sorted by name.
func (r *Recorder) Phases() []PhaseStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]PhaseStat, 0, len(r.phases))
	for name, acc := range r.phases {
		out = append(out, PhaseStat{
			Name:    name,
			WallSec: acc.wall.Seconds(),
			Mallocs: acc.mallocs,
			Count:   acc.count,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// Snapshot returns all live metrics as one flat map, suitable for expvar
// publication: counters and gauges by name, plus per-span-kind duration
// summaries and the coarse-phase breakdown.
func (r *Recorder) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	out := map[string]any{}
	for c := Counter(0); c < numCounters; c++ {
		out["counter."+counterNames[c]] = r.Counter(c)
	}
	for g := Gauge(0); g < numGauges; g++ {
		out["gauge."+gaugeNames[g]] = r.Gauge(g)
	}
	for k := SpanKind(0); k < numSpanKinds; k++ {
		s := r.hists[k].Snapshot()
		if s.Count == 0 {
			continue
		}
		out["span."+spanNames[k]] = map[string]any{
			"count":  s.Count,
			"sum_ms": float64(s.SumNs) / 1e6,
			"avg_us": s.AvgUs(),
			"p99_us": s.QuantileUs(0.99),
		}
	}
	if ph := r.Phases(); len(ph) > 0 {
		out["phases"] = ph
	}
	return out
}
