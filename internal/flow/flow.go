// Package flow orchestrates the paper's §V evaluation flow: two-stage slack
// optimization (early under late constraints, then late under early
// constraints), with a pluggable clock-skew-scheduling method per stage,
// followed by the §IV physical realization.
//
// Runs that mutate placement work on a clone of the input design, so every
// method starts from the same "Contest 1st" solution, as in Table I.
// Timing-only runs (Baseline, FPM, or any method under SkipOpt) analyze the
// input directly — predictive latencies live on the timer state, never on
// the design — and skip the clone.
package flow

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/engine"
	"iterskew/internal/eval"
	"iterskew/internal/fpm"
	"iterskew/internal/graphio"
	"iterskew/internal/iccss"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/opt"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// Method selects the CSS algorithm compared in Table I.
type Method int

// The Table-I rows.
const (
	Baseline  Method = iota // the input solution, unmodified ("Contest 1st")
	FPM                     // Kim et al.'s fast predictive useful skew (early only)
	OursEarly               // the paper's algorithm, early stage only
	ICCSSPlus               // modified incremental CSS (§III-E), both stages
	Ours                    // the paper's algorithm, both stages
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case Baseline:
		return "Contest1st"
	case FPM:
		return "FPM"
	case OursEarly:
		return "Ours-Early"
	case ICCSSPlus:
		return "IC-CSS+"
	case Ours:
		return "Ours"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Config tunes a flow run.
type Config struct {
	Method    Method
	MaxRounds int // per CSS stage; 0 = default
	// Context, when non-nil, cancels the run cooperatively: the schedulers
	// stop at the next round boundary with a consistent partial result,
	// remaining stages (and the §IV physical realization) are skipped, and
	// Run returns the partial Report with StopReason set — cancellation is
	// not an error.
	Context context.Context
	// Margin is the §V stability amplification passed to the core
	// scheduler (extract edges within this slack band; 0 = violations
	// only).
	Margin    float64
	Reconnect opt.ReconnectOptions
	Move      opt.MoveOptions
	// EnableSizing runs the gate-sizing refinement (§"logic path
	// optimization" future work) after the late stage.
	EnableSizing bool
	Resize       opt.ResizeOptions
	// Workers sets the schedulers' batch-extraction width (sched.Options).
	// 0 means serial; negative means GOMAXPROCS. Results are identical at
	// any width.
	Workers int
	// SkipOpt skips the §IV physical realization after each CSS stage (and
	// the optional sizing pass): a timing-only run that leaves the computed
	// latencies applied predictively and never mutates the design — so Run
	// also skips cloning the input.
	SkipOpt bool
	// Recorder optionally instruments the run: it is installed on the timer
	// (so every scheduler and extraction call reports into it) and receives
	// per-phase wall-time/allocation accounting plus run/phase events.
	Recorder *obs.Recorder
	// GraphCache, when non-nil, serves the compiled timing graph for
	// timing-only runs (those that do not mutate placement) from a shared
	// content-addressed cache instead of recompiling; on a miss the freshly
	// compiled graph is added. Mutating runs work on a clone whose graph
	// must not outlive the run, so they always compile and never consult
	// the cache.
	GraphCache *engine.Cache
	// GraphSnapshot, when non-empty, names a graphio artifact to load the
	// compiled graph from for timing-only runs (O(read) cold start). The
	// artifact's content hash must match the input design and delay model;
	// a mismatch is an error, not a silent recompile. Ignored by mutating
	// runs, takes precedence over GraphCache when both are set (the loaded
	// graph is still added to the cache).
	GraphSnapshot string
	// Log, when non-nil, receives one human-readable progress line per
	// scheduling round (threaded into core.Options.Log).
	Log io.Writer
}

// TrajPoint is one step of the Fig-8 trajectory.
type TrajPoint struct {
	Phase string // "early-css", "early-opt", "late-css", "late-opt"
	Step  int
	Mode  timing.Mode
	WNS   float64 // of the phase's mode
	TNS   float64
}

// Report is the outcome of one flow run — one row of Table I.
type Report struct {
	Method Method
	Input  eval.Metrics
	Final  eval.Metrics

	CSSTime time.Duration
	OptTime time.Duration
	Total   time.Duration

	// ExtractedEdges counts sequential edges produced by the timer's
	// extraction calls (the "#Extract Edge" column).
	ExtractedEdges int64
	// Rounds is the total number of CSS update-extract rounds (the paper's
	// k), summed over stages.
	Rounds int

	// StopReason records how the last scheduler stage that ran ended; the
	// zero value (converged) also covers methods that run no scheduler
	// (Baseline). An Interrupted() reason means the flow was cut short by
	// Config.Context and the Report describes a consistent partial run.
	StopReason sched.StopReason

	HPWLIncrPct float64
	Trajectory  []TrajPoint

	// ConstraintErrs lists contest-constraint violations after the flow
	// (must be empty).
	ConstraintErrs []string

	// ClonedInput reports whether Run worked on a clone of the input. It is
	// true exactly when the configured method mutates placement (the §IV
	// stages run); timing-only runs (Baseline, FPM, SkipOpt) analyze the
	// input design directly — predictive latencies live on the timer state,
	// never on the design.
	ClonedInput bool

	// GraphSource records where the compiled timing graph came from:
	// "compile" (built from the netlist), "cache" (Config.GraphCache hit),
	// "snapshot" (decoded from Config.GraphSnapshot), or "caller" (handed
	// in via RunGraph).
	GraphSource string
}

// mutatesPlacement reports whether the configured run performs physical
// optimization (and therefore must work on a clone of the input).
func (cfg Config) mutatesPlacement() bool {
	if cfg.SkipOpt {
		return false
	}
	switch cfg.Method {
	case OursEarly, ICCSSPlus, Ours:
		return true
	}
	return false
}

// cloneDesign is what Run uses to clone a mutating run's input; tests swap
// it to observe (or forbid) the clone.
var cloneDesign = func(d *netlist.Design) *netlist.Design { return d.Clone() }

// Run executes the configured method on the input design. Methods that
// mutate placement run on a clone, so every method starts from the same
// "Contest 1st" solution; timing-only configurations skip the clone and
// compile the input directly.
func Run(input *netlist.Design, cfg Config) (*Report, error) {
	d := input
	cloned := cfg.mutatesPlacement()
	if cloned {
		d = cloneDesign(input)
	}
	g, source, err := compileFor(d, cfg, cloned)
	if err != nil {
		return nil, err
	}
	rep, err := runGraph(g, cfg)
	if err != nil {
		return nil, err
	}
	rep.ClonedInput = cloned
	rep.GraphSource = source
	return rep, nil
}

// compileFor obtains the run's compiled graph: from the snapshot artifact or
// the shared cache for timing-only runs, from a fresh compile otherwise. The
// content hash is computed at most once per run and threaded through both the
// artifact verification and the cache key — hashing is the only O(design)
// cost on these paths, so it must not be paid twice.
func compileFor(d *netlist.Design, cfg Config, cloned bool) (*timing.Graph, string, error) {
	m := delay.Default()
	if cloned || (cfg.GraphSnapshot == "" && cfg.GraphCache == nil) {
		g, err := timing.Compile(d, m)
		if err != nil {
			return nil, "", err
		}
		return g, "compile", nil
	}
	key, err := graphio.HashOf(d, m)
	if err != nil {
		return nil, "", err
	}
	if cfg.GraphSnapshot != "" {
		f, err := os.Open(cfg.GraphSnapshot)
		if err != nil {
			return nil, "", fmt.Errorf("flow: graph snapshot: %w", err)
		}
		defer f.Close()
		g, err := graphio.ReadVerified(f, d, m, key)
		if err != nil {
			return nil, "", fmt.Errorf("flow: graph snapshot %s: %w", cfg.GraphSnapshot, err)
		}
		if cfg.GraphCache != nil {
			cfg.GraphCache.Add(key, g)
		}
		return g, "snapshot", nil
	}
	if g, ok := cfg.GraphCache.Lookup(key); ok {
		return g, "cache", nil
	}
	g, err := timing.Compile(d, m)
	if err != nil {
		return nil, "", err
	}
	cfg.GraphCache.Add(key, g)
	return g, "compile", nil
}

// RunGraph executes a timing-only flow over an already-compiled timing
// graph — the compile-once/schedule-many entry point used by concurrent
// what-if sessions. The configuration must not mutate placement (Baseline,
// FPM, or SkipOpt set); mutating configurations must go through Run, which
// owns the clone-then-compile sequence.
func RunGraph(g *timing.Graph, cfg Config) (*Report, error) {
	if cfg.mutatesPlacement() {
		return nil, fmt.Errorf("flow: RunGraph requires a non-mutating config (method %v without SkipOpt mutates placement)", cfg.Method)
	}
	rep, err := runGraph(g, cfg)
	if err != nil {
		return nil, err
	}
	rep.GraphSource = "caller"
	return rep, nil
}

// runGraph is the shared core of Run and RunGraph: one state over the
// compiled graph carries both CSS stages, so the graph build is paid once.
func runGraph(g *timing.Graph, cfg Config) (*Report, error) {
	d := g.Design()
	tm := g.NewState()
	rec := cfg.Recorder
	if rec != nil {
		tm.SetRecorder(rec)
		rec.Emit(obs.Event{
			Type:   "run",
			Req:    obs.RequestID(cfg.Context),
			Method: cfg.Method.String(),
			Design: fmt.Sprintf("%d cells / %d nets", len(d.Cells), len(d.Nets)),
		})
	}
	rep := &Report{Method: cfg.Method}
	rep.Input = eval.Measure(tm)
	edges0 := tm.Stats.ExtractedEdges
	start := time.Now()

	switch cfg.Method {
	case Baseline:
		// Nothing to do.

	case FPM:
		t0 := time.Now()
		done := rec.PhaseSpan("fpm-css")
		res, err := fpm.Schedule(tm, fpm.Options{Context: cfg.Context})
		if err != nil {
			done()
			return nil, err
		}
		rep.StopReason = res.StopReason
		done()
		rep.CSSTime = time.Since(t0)
		// FPM is a predictive placement-stage methodology: its skews are
		// assumed realized by downstream CTS, so it is evaluated with the
		// predictive latencies applied and performs no physical
		// optimization (hence its ≈0 HPWL impact in Table I).

	case OursEarly:
		if err := runStage(tm, rep, cfg, timing.Early, "early"); err != nil {
			return nil, err
		}

	case Ours, ICCSSPlus:
		if err := runStage(tm, rep, cfg, timing.Early, "early"); err != nil {
			return nil, err
		}
		if !rep.StopReason.Interrupted() {
			if err := runStage(tm, rep, cfg, timing.Late, "late"); err != nil {
				return nil, err
			}
		}
		if cfg.EnableSizing && !cfg.SkipOpt && !rep.StopReason.Interrupted() {
			t0 := time.Now()
			done := rec.PhaseSpan("sizing")
			opt.ResizeCells(tm, cfg.Resize)
			done()
			rep.OptTime += time.Since(t0)
		}

	default:
		return nil, fmt.Errorf("flow: unknown method %v", cfg.Method)
	}

	rep.Total = time.Since(start)
	rep.Final = eval.Measure(tm)
	rep.ExtractedEdges = tm.Stats.ExtractedEdges - edges0
	rep.HPWLIncrPct = eval.HPWLIncreasePct(rep.Input.HPWL, rep.Final.HPWL)
	for _, e := range eval.CheckConstraints(d) {
		rep.ConstraintErrs = append(rep.ConstraintErrs, e.Error())
	}
	return rep, nil
}

// runStage performs one CSS stage plus its physical realization, timing the
// two parts separately and recording the trajectory.
func runStage(tm *timing.State, rep *Report, cfg Config, mode timing.Mode, phase string) error {
	t0 := time.Now()
	done := cfg.Recorder.PhaseSpan(phase + "-css")
	var targets map[netlist.CellID]float64
	switch cfg.Method {
	case ICCSSPlus:
		res, err := iccss.Schedule(tm, iccss.Options{Mode: mode, MaxRounds: cfg.MaxRounds, Workers: cfg.Workers, Context: cfg.Context})
		if err != nil {
			return err
		}
		rep.Rounds += res.Rounds
		rep.StopReason = res.StopReason
		targets = res.Target
	default:
		res, err := core.Schedule(tm, core.Options{Mode: mode, MaxRounds: cfg.MaxRounds, Margin: cfg.Margin, Workers: cfg.Workers, Log: cfg.Log, Context: cfg.Context})
		if err != nil {
			return err
		}
		rep.Rounds += res.Rounds
		rep.StopReason = res.StopReason
		targets = res.Target
		for _, it := range res.PerIter {
			rep.Trajectory = append(rep.Trajectory, TrajPoint{
				Phase: phase + "-css", Step: it.Round, Mode: mode, WNS: it.WNS, TNS: it.TNS,
			})
		}
	}
	done()
	rep.CSSTime += time.Since(t0)

	// An interrupted stage skips its physical realization: the §IV moves
	// would chase a schedule the scheduler never finished.
	if !cfg.SkipOpt && !rep.StopReason.Interrupted() {
		rep.applyOpt(tm, targets, cfg, phase)
	}
	return nil
}

// applyOpt realizes targets physically (§IV) and records the post-OPT
// trajectory point.
func (rep *Report) applyOpt(tm *timing.State, targets map[netlist.CellID]float64, cfg Config, phase string) {
	t0 := time.Now()
	done := cfg.Recorder.PhaseSpan(phase + "-opt")
	opt.Optimize(tm, targets, opt.Options{Reconnect: cfg.Reconnect, Move: cfg.Move})
	done()
	rep.OptTime += time.Since(t0)
	we, te := tm.WNSTNS(timing.Early)
	wl, tl := tm.WNSTNS(timing.Late)
	rep.Trajectory = append(rep.Trajectory,
		TrajPoint{Phase: phase + "-opt", Mode: timing.Early, WNS: we, TNS: te},
		TrajPoint{Phase: phase + "-opt", Mode: timing.Late, WNS: wl, TNS: tl},
	)
	if cfg.Recorder != nil {
		cfg.Recorder.Emit(obs.Event{
			Type: "phase", Req: obs.RequestID(cfg.Context), Phase: phase + "-opt",
			WNS: we, TNS: te,
		})
	}
}
