// Package iterskew is a reproduction of "A Fast, Iterative Clock Skew
// Scheduling Algorithm with Dynamic Sequential Graph Extraction" (DAC 2025).
//
// It bundles, behind one import path:
//
//   - a placed gate-level netlist model with flip-flops, local clock
//     buffers (LCBs) and I/O ports (internal/netlist);
//   - an Elmore-delay static timing engine with incremental propagation and
//     sequential-edge extraction primitives (internal/timing);
//   - the paper's iterative clock skew scheduling algorithm (internal/core),
//     the IC-CSS+ and FPM baselines (internal/iccss, internal/fpm), and the
//     §IV physical realization techniques (internal/opt);
//   - a deterministic ICCAD-2015-style benchmark generator and evaluator
//     (internal/bench, internal/eval), and the two-stage evaluation flow of
//     §V (internal/flow).
//
// Quick start:
//
//	profile, _ := iterskew.SuperblueProfile("superblue18", 0.01)
//	design, _ := iterskew.GenerateBenchmark(profile)
//	report, _ := iterskew.RunFlow(design, iterskew.FlowConfig{Method: iterskew.Ours})
//	fmt.Println(report.Final)
//
// For finer control, create a Timer and call ScheduleSkew (the paper's
// Alg 1) and Optimize directly; see examples/ for runnable programs.
package iterskew

import (
	"context"
	"io"
	"net/http"

	"iterskew/internal/bench"
	"iterskew/internal/core"
	"iterskew/internal/cts"
	"iterskew/internal/delay"
	"iterskew/internal/engine"
	"iterskew/internal/eval"
	"iterskew/internal/flow"
	"iterskew/internal/fpm"
	"iterskew/internal/geom"
	"iterskew/internal/graphio"
	"iterskew/internal/iccss"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/opt"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// Re-exported core types. The aliases give external users names for the
// library's central values; their methods are documented on the internal
// definitions.
type (
	// Design is a placed gate-level netlist.
	Design = netlist.Design
	// CellID identifies a cell within a Design.
	CellID = netlist.CellID
	// Timer is the static timing engine: a mutable per-session State over a
	// shared immutable TimingGraph.
	Timer = timing.State
	// TimingGraph is the immutable compiled half of the timer — topology,
	// adjacency, levels and the pristine timing snapshot. One graph can back
	// any number of concurrent Timer states (TimingGraph.NewState).
	TimingGraph = timing.Graph
	// Mode selects early (hold) or late (setup) analysis.
	Mode = timing.Mode
	// TimingView is the slack/extract/apply-latency surface the schedulers
	// consume. *Timer is the single-corner implementation; *CornerSet joins
	// several corners into a worst-case envelope.
	TimingView = sched.TimingView
	// Corner names one analysis universe (period + derates) of a
	// multi-corner run.
	Corner = timing.Corner
	// CornerSet presents N corner states over one shared TimingGraph as a
	// single TimingView: envelope slacks, union essential-edge extraction.
	CornerSet = timing.CornerSet
	// Scheduler is the contract every CSS implementation satisfies; the
	// three bundled schedulers are exposed as CoreScheduler, ICCSSScheduler
	// and FPMScheduler.
	Scheduler = sched.Scheduler
	// StopReason classifies why a scheduling run ended (converged, stalled,
	// round-cap, cancelled, deadline). Interrupted() reasons still come with
	// a consistent partial result.
	StopReason = sched.StopReason

	// Engine is the compile-once/schedule-many session layer: one compiled
	// TimingGraph serving many concurrent scheduling sessions on pooled
	// states.
	Engine = engine.Engine
	// EngineConfig tunes an Engine (its in-flight session bound).
	EngineConfig = engine.Config
	// EngineJob describes one Engine scheduling session.
	EngineJob = engine.Job
	// EngineJobResult pairs one Engine.RunAll job with its error.
	EngineJobResult = engine.JobResult
	// PanicError is a panic the Engine recovered from a session or
	// scheduler, surfaced as that job's error instead of crashing the
	// process; the poisoned state is discarded, never recycled.
	PanicError = engine.PanicError
	// DelayModel is the Elmore interconnect model.
	DelayModel = delay.Model

	// Profile configures the benchmark generator.
	Profile = bench.Profile
	// Metrics is an evaluator snapshot (WNS/TNS/HPWL).
	Metrics = eval.Metrics

	// ScheduleOptions configures the paper's Alg 1.
	ScheduleOptions = core.Options
	// ScheduleResult is Alg 1's outcome (target latencies, rounds, edges).
	ScheduleResult = core.Result
	// ICCSSOptions configures the IC-CSS+ baseline.
	ICCSSOptions = iccss.Options
	// ICCSSResult is the IC-CSS+ outcome.
	ICCSSResult = iccss.Result
	// FPMOptions configures the FPM baseline.
	FPMOptions = fpm.Options
	// FPMResult is the FPM outcome.
	FPMResult = fpm.Result

	// OptimizeOptions configures the §IV physical realization.
	OptimizeOptions = opt.Options
	// OptimizeResult reports the realization statistics.
	OptimizeResult = opt.Result

	// CTSOptions configures schedule-guided clock tree re-clustering.
	CTSOptions = cts.Options
	// CTSResult reports the re-clustering outcome.
	CTSResult = cts.Result

	// FlowConfig configures a §V evaluation flow run.
	FlowConfig = flow.Config
	// FlowReport is one Table-I row.
	FlowReport = flow.Report
	// Method is a Table-I comparison method.
	Method = flow.Method

	// Recorder collects counters, spans and events from an instrumented run.
	// A nil *Recorder is valid everywhere and costs nothing.
	Recorder = obs.Recorder
	// Event is one structured record on the Recorder's JSONL event stream.
	Event = obs.Event
	// PhaseStat is one row of a Recorder's per-phase wall-time/allocation
	// accounting.
	PhaseStat = obs.PhaseStat
	// DebugServer serves live pprof, expvar, and Prometheus /metrics
	// endpoints for a Recorder.
	DebugServer = obs.DebugServer
	// LabeledCtr is a labeled Prometheus counter vector on a Recorder.
	LabeledCtr = obs.LabeledCtr
	// BucketHist is a labeled explicit-bucket Prometheus histogram vector.
	BucketHist = obs.BucketHist
	// IterStats is one per-round record of the paper's Alg 1.
	IterStats = core.IterStats
)

// Design-construction types, for users building netlists by hand rather
// than through the generator.
type (
	// Point is a die location in DBU.
	Point = geom.Point
	// Rect is an axis-aligned die region.
	Rect = geom.Rect
	// Library is a collection of cell types.
	Library = netlist.Library
	// CellType is a library cell with timing parameters.
	CellType = netlist.CellType
	// PinID identifies a pin within a Design.
	PinID = netlist.PinID
	// NetID identifies a net within a Design.
	NetID = netlist.NetID
)

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// RectOf returns the minimal rectangle containing the given points.
func RectOf(pts ...Point) Rect { return geom.RectOf(pts...) }

// StdLib returns the default standard-cell library.
func StdLib() *Library { return netlist.StdLib() }

// NewDesign returns an empty design with the given name and clock period.
func NewDesign(name string, period float64) *Design { return netlist.NewDesign(name, period) }

// Analysis modes.
const (
	Late  = timing.Late
	Early = timing.Early
)

// Termination causes (ScheduleResult.StopReason / FlowReport.StopReason).
// Cancellation is cooperative — set ScheduleOptions.Context/Deadline,
// EngineJob.Timeout, or FlowConfig.Context — and never an error: the run
// stops at the next round boundary and returns a consistent partial result
// (the reported target latencies are exactly what is applied on the timer).
const (
	StopConverged = sched.StopConverged
	StopStalled   = sched.StopStalled
	StopRoundCap  = sched.StopRoundCap
	StopCancelled = sched.StopCancelled
	StopDeadline  = sched.StopDeadline
)

// Comparison methods (the Table-I rows).
const (
	Baseline  = flow.Baseline
	FPM       = flow.FPM
	OursEarly = flow.OursEarly
	ICCSSPlus = flow.ICCSSPlus
	Ours      = flow.Ours
)

// SuperblueProfile returns the scaled profile of one of the eight ICCAD-2015
// designs evaluated in Table I; scale shrinks the flip-flop count linearly.
func SuperblueProfile(name string, scale float64) (Profile, error) {
	return bench.Superblue(name, scale)
}

// SuperblueNames lists the Table-I benchmark names in paper order.
func SuperblueNames() []string { return bench.SuperblueNames() }

// GenerateBenchmark builds a deterministic synthetic benchmark design.
func GenerateBenchmark(p Profile) (*Design, error) { return bench.Generate(p) }

// NewTimer builds a timer over the design using the default delay model
// (equivalent to Compile followed by TimingGraph.NewState).
func NewTimer(d *Design) (*Timer, error) { return timing.New(d, delay.Default()) }

// Compile builds the immutable timing graph for the design under the
// default delay model. Call NewState on it for each (possibly concurrent)
// analysis session.
func Compile(d *Design) (*TimingGraph, error) { return timing.Compile(d, delay.Default()) }

// NewCornerSet builds one timing state per corner over a compiled graph and
// joins them into a multi-corner TimingView: any Scheduler run against it
// produces a single latency assignment meeting every corner (worst-case
// envelope slacks, union essential-edge extraction).
func NewCornerSet(g *TimingGraph, corners []Corner) (*CornerSet, error) {
	return timing.NewCornerSet(g, corners)
}

// Compiled-graph persistence, caching and delta recompilation.
type (
	// GraphHash is the content hash binding a compiled graph artifact to its
	// netlist + delay model inputs.
	GraphHash = graphio.Hash
	// GraphDelta describes a localized netlist edit for
	// TimingGraph.Recompile / Engine.Recompile.
	GraphDelta = timing.Delta
	// RecompileStats reports what a delta recompilation actually did.
	RecompileStats = timing.RecompileStats
	// GraphCache is a content-addressed LRU cache of compiled timing graphs
	// under a byte budget (share one via FlowConfig.GraphCache).
	GraphCache = engine.Cache
	// GraphCacheStats is a GraphCache residency snapshot.
	GraphCacheStats = engine.CacheStats
)

// WriteGraph serializes a compiled timing graph to the versioned binary
// artifact format, making a later load O(read) instead of O(compile).
func WriteGraph(w io.Writer, g *TimingGraph) error { return graphio.Write(w, g) }

// ReadGraph deserializes a graph artifact, reconstructing the design from
// the embedded netlist and returning the artifact's content hash.
func ReadGraph(r io.Reader) (*TimingGraph, GraphHash, error) { return graphio.Read(r) }

// ReadGraphFor deserializes a graph artifact for an already-loaded design
// under the default delay model; the artifact's content hash must match.
func ReadGraphFor(r io.Reader, d *Design) (*TimingGraph, error) {
	return graphio.ReadFor(r, d, delay.Default())
}

// HashGraphInputs returns the content hash of (design, default delay model)
// — the key under which Compile's result is cached and persisted.
func HashGraphInputs(d *Design) (GraphHash, error) { return graphio.HashOf(d, delay.Default()) }

// NewGraphCache returns a compiled-graph cache bounded to maxBytes of slab
// memory (<= 0 means unbounded); rec may be nil.
func NewGraphCache(maxBytes int64, rec *Recorder) *GraphCache { return engine.NewCache(maxBytes, rec) }

// NewEngine compiles the design once and returns a session engine for
// concurrent schedule-many workloads.
func NewEngine(d *Design, cfg EngineConfig) (*Engine, error) {
	return engine.New(d, delay.Default(), cfg)
}

// The bundled schedulers as Scheduler values, for use in EngineJob or any
// code written against the interface.
var (
	// CoreScheduler is the paper's iterative algorithm (Alg 1).
	CoreScheduler Scheduler = core.Scheduler
	// ICCSSScheduler is the IC-CSS+ baseline (§III-E).
	ICCSSScheduler Scheduler = iccss.Scheduler
	// FPMScheduler is the FPM baseline (early violations only).
	FPMScheduler Scheduler = fpm.Scheduler
)

// DegenerateInputError is returned by the schedulers for inputs that clock
// skew scheduling cannot meaningfully process: zero-FF designs, non-positive
// periods, and flip-flops whose Q drives their own D directly.
type DegenerateInputError = core.DegenerateInputError

// ScheduleSkew runs the paper's iterative clock skew scheduling (Alg 1) and
// leaves the computed latencies applied predictively on the timing view —
// a *Timer for single-corner runs, a *CornerSet for multi-corner ones.
// Degenerate designs return a *DegenerateInputError.
func ScheduleSkew(tm TimingView, o ScheduleOptions) (*ScheduleResult, error) {
	return core.Schedule(tm, o)
}

// ScheduleICCSS runs the IC-CSS+ baseline (§III-E). Degenerate designs
// return a *DegenerateInputError.
func ScheduleICCSS(tm TimingView, o ICCSSOptions) (*ICCSSResult, error) {
	return iccss.Schedule(tm, o)
}

// ScheduleFPM runs the FPM baseline (early violations only). Degenerate
// designs return a *DegenerateInputError, matching the other schedulers.
func ScheduleFPM(tm TimingView, o FPMOptions) (*FPMResult, error) { return fpm.Schedule(tm, o) }

// Optimize realizes target latencies physically: LCB–FF reconnection plus
// cell movement (§IV). It clears all predictive latencies.
func Optimize(tm *Timer, targets map[CellID]float64, o OptimizeOptions) *OptimizeResult {
	return opt.Optimize(tm, targets, o)
}

// Measure evaluates the design under the timer's current state.
func Measure(tm *Timer) Metrics { return eval.Measure(tm) }

// CheckConstraints verifies the contest-style physical constraints.
func CheckConstraints(d *Design) []error { return eval.CheckConstraints(d) }

// RunFlow executes a full §V evaluation flow (CSS + physical realization)
// on a clone of the design and returns its Table-I row.
func RunFlow(d *Design, cfg FlowConfig) (*FlowReport, error) { return flow.Run(d, cfg) }

// NewRecorder returns an enabled metrics recorder. Install it via
// FlowConfig.Recorder, ScheduleOptions.Recorder, or Timer.SetRecorder;
// call EnableTrace/EnableEvents on it for Chrome-trace and JSONL output.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// StartDebugServer serves net/http/pprof and expvar (backed by the given
// recorder, which may be nil) on addr; use DebugServer.Close to stop it.
func StartDebugServer(addr string, r *Recorder) (*DebugServer, error) {
	return obs.StartDebugServer(addr, r)
}

// MetricsHandler serves a Recorder's metrics as Prometheus text-format
// v0.0.4 — mount it at GET /metrics on any mux.
func MetricsHandler(r *Recorder) http.Handler { return obs.MetricsHandler(r) }

// WithRequestID returns a context carrying a request ID; schedulers and the
// timer stamp it onto their events and trace spans, correlating everything
// one service request did. An empty id returns ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// RequestID extracts the request ID from a context ("" when absent).
func RequestID(ctx context.Context) string { return obs.RequestID(ctx) }

// NewRequestID generates a fresh 16-hex-character request ID.
func NewRequestID() string { return obs.NewRequestID() }

// MinPeriodResult reports a MinPeriod search.
type MinPeriodResult = core.MinPeriodResult

// MinPeriod binary-searches the smallest clock period at which the design
// is schedulable free of setup violations with unrestricted useful skew —
// the classical CSS objective answered with the iterative engine. The input
// design is not modified.
func MinPeriod(d *Design, lo, hi, tol float64) (*MinPeriodResult, error) {
	return core.MinPeriod(d, lo, hi, tol)
}

// GuideClockTree re-clusters all flip-flops onto LCBs so their clock
// branches realize the scheduled latencies — the paper's future-work
// direction of CSS-guided clock tree synthesis. Unlike Optimize it is a
// full synthesis pass, not an incremental ECO.
func GuideClockTree(tm *Timer, targets map[CellID]float64, o CTSOptions) *CTSResult {
	return cts.GuideTree(tm, targets, o)
}
