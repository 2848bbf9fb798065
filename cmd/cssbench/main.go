// Command cssbench regenerates Table I of the paper: for each (scaled)
// superblue benchmark it runs the Contest-1st baseline, FPM, Ours-Early,
// IC-CSS+, and Ours, and prints early/late WNS+TNS, CSS/OPT/total runtimes,
// extracted-edge counts, and HPWL increase, followed by the paper's
// aggregate rows (average ratios vs the baseline and the headline
// speedup/edge-reduction comparisons).
//
//	go run ./cmd/cssbench                 # full table at the default scale
//	go run ./cmd/cssbench -scale 0.02    # larger circuits
//	go run ./cmd/cssbench -designs superblue18,superblue5
//	go run ./cmd/cssbench -sweep         # §III-D complexity sweep instead
//	go run ./cmd/cssbench -sessions 8    # concurrent-session benchmark instead
//	go run ./cmd/cssbench -timeout 50ms  # bound each run; partial results
//
// With -timeout each flow run gets its own wall-clock budget: the schedulers
// stop cooperatively at the deadline and report a consistent partial result,
// so the table still completes (rows carry a [deadline] marker and the -json
// output a "stop_reason" field — the cancel-smoke CI target relies on this).
//
// The -sessions mode exercises the compile-once/schedule-many engine: it
// measures the amortized cost of a pooled session (timing.Graph.NewState)
// against a full timer build (timing.New), then runs N concurrent
// mixed-method scheduling sessions over one shared graph and verifies the
// results are byte-identical to dedicated serial runs, exiting non-zero on
// any divergence (the engine-smoke CI target relies on this).
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"iterskew"
	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/engine"
	"iterskew/internal/eval"
	"iterskew/internal/fpm"
	"iterskew/internal/graphio"
	"iterskew/internal/iccss"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

func main() {
	scale := flag.Float64("scale", 0.01, "linear shrink on contest flip-flop counts")
	designs := flag.String("designs", "all", "comma-separated design list or 'all'")
	sweep := flag.Bool("sweep", false, "run the O(k·m') complexity sweep (experiment E4) instead of Table I")
	sessions := flag.Int("sessions", 0, "run the concurrent-session engine benchmark with this many sessions instead of Table I")
	csvPath := flag.String("csv", "", "also write the per-design rows to this CSV file")
	jsonPath := flag.String("json", "", "write the Table-I rows plus extraction/propagation micro-timings to this JSON file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file (load in chrome://tracing or Perfetto)")
	eventsPath := flag.String("events", "", "write per-round JSONL events to this file")
	httpAddr := flag.String("httpaddr", "", "serve net/http/pprof and expvar live counters on this address during the run")
	progress := flag.Bool("progress", false, "print one line per scheduling round to stderr")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per flow run (0 = none): schedulers stop cooperatively and report partial results")
	checkTrace := flag.String("checktrace", "", "validate a trace file written by -trace (round + extraction span coverage) and exit")
	saveGraph := flag.String("savegraph", "", "compile the first selected design and write the graph artifact to this file, then exit")
	loadGraph := flag.String("loadgraph", "", "load a graph artifact for the first selected design, schedule on it, verify bit-identity against an in-process compile, then exit (non-zero on divergence)")
	serveAddr := flag.String("serveaddr", "", "base URL of a live iterskewd daemon for the -load harness (e.g. http://127.0.0.1:8077)")
	loadN := flag.Int("load", 0, "run the service load harness against -serveaddr with this many concurrent clients, then exit")
	loadJobs := flag.Int("loadjobs", 8, "jobs per client in the -load harness")
	cornersN := flag.Int("corners", 0, "run the multi-corner (MCMM) benchmark with this many corners instead of Table I; with -serveaddr, drive a live iterskewd and verify its corner job against the LP oracle")
	flag.Parse()

	if *checkTrace != "" {
		if err := validateTrace(*checkTrace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var rec *iterskew.Recorder
	if *tracePath != "" || *eventsPath != "" || *httpAddr != "" {
		rec = iterskew.NewRecorder()
	}
	if *tracePath != "" {
		rec.EnableTrace()
	}
	if *eventsPath != "" {
		f, err := os.Create(*eventsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		rec.EnableEvents(f)
	}
	if *httpAddr != "" {
		srv, err := iterskew.StartDebugServer(*httpAddr, rec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/ (/debug/pprof/, /debug/vars)\n", srv.Addr)
	}
	var logW io.Writer
	if *progress {
		logW = os.Stderr
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *saveGraph != "" || *loadGraph != "" {
		if err := runGraphArtifact(*designs, *scale, *saveGraph, *loadGraph); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *loadN > 0 {
		if *serveAddr == "" {
			fmt.Fprintln(os.Stderr, "-load requires -serveaddr (a running iterskewd)")
			os.Exit(1)
		}
		if err := runLoad(*serveAddr, *designs, *scale, *loadN, *loadJobs, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *cornersN > 0 {
		if err := runMCMM(*designs, *scale, *cornersN, *serveAddr, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *sweep {
		runSweep()
		return
	}

	if *sessions > 0 {
		if err := runSessions(*designs, *scale, *sessions, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	names := iterskew.SuperblueNames()
	if *designs != "all" {
		names = strings.Split(*designs, ",")
	}

	methods := []iterskew.Method{iterskew.Baseline, iterskew.FPM, iterskew.OursEarly, iterskew.ICCSSPlus, iterskew.Ours}

	fmt.Printf("Table I reproduction (scale %g; early in ps, late in ns, runtimes in s)\n\n", *scale)
	fmt.Printf("%-12s %-11s | %9s %10s | %9s %10s | %8s %8s %8s | %9s | %7s\n",
		"Benchmark", "Solution", "E-WNS", "E-TNS", "L-WNS", "L-TNS", "CSS", "OPT", "Total", "#Edges", "HPWL%")

	type agg struct {
		eWNSImp, eTNSImp, lWNSImp, lTNSImp float64
		css, opt, total                    time.Duration
		edges                              int64
		hpwl                               float64
		n                                  int
	}
	aggs := map[iterskew.Method]*agg{}
	for _, m := range methods {
		aggs[m] = &agg{}
	}
	var jrows []rowJSON

	var cw *csv.Writer
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		cw = csv.NewWriter(f)
		defer cw.Flush()
		cw.Write([]string{
			"design", "method", "eWNS_ps", "eTNS_ps", "lWNS_ps", "lTNS_ps",
			"css_s", "opt_s", "total_s", "edges", "hpwl_incr_pct", "rounds",
		})
	}

	for _, name := range names {
		p, err := iterskew.SuperblueProfile(strings.TrimSpace(name), *scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		d, err := iterskew.GenerateBenchmark(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st := d.Stats()
		fmt.Printf("%-12s cells=%d ffs=%d lcbs=%d T=%.0fps\n", name, st.Cells, st.FFs, st.LCBs, d.Period)

		var base *iterskew.FlowReport
		for _, m := range methods {
			rec.SetPhase(name + "/" + m.String())
			cfg := iterskew.FlowConfig{Method: m, Recorder: rec, Log: logW}
			var cancel context.CancelFunc
			if *timeout > 0 {
				cfg.Context, cancel = context.WithTimeout(context.Background(), *timeout)
			}
			rep, err := iterskew.RunFlow(d, cfg)
			if cancel != nil {
				cancel()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if len(rep.ConstraintErrs) > 0 {
				fmt.Fprintf(os.Stderr, "%s/%v: CONSTRAINT VIOLATIONS: %v\n", name, m, rep.ConstraintErrs)
			}
			if m == iterskew.Baseline {
				base = rep
			}
			f := rep.Final
			mark := ""
			if rep.StopReason.Interrupted() {
				mark = "  [" + rep.StopReason.String() + "]"
			}
			fmt.Printf("%-12s %-11s | %9.2f %10.2f | %9.3f %10.2f | %8.3f %8.3f %8.3f | %9d | %7.4f%s\n",
				"", m, f.WNSEarly, f.TNSEarly, f.WNSLate/1000, f.TNSLate/1000,
				rep.CSSTime.Seconds(), rep.OptTime.Seconds(), rep.Total.Seconds(),
				rep.ExtractedEdges, rep.HPWLIncrPct, mark)
			if cw != nil {
				cw.Write([]string{
					name, m.String(),
					fmtF(f.WNSEarly), fmtF(f.TNSEarly), fmtF(f.WNSLate), fmtF(f.TNSLate),
					fmtF(rep.CSSTime.Seconds()), fmtF(rep.OptTime.Seconds()), fmtF(rep.Total.Seconds()),
					strconv.FormatInt(rep.ExtractedEdges, 10), fmtF(rep.HPWLIncrPct),
					strconv.Itoa(rep.Rounds),
				})
			}
			if *jsonPath != "" {
				jrows = append(jrows, rowJSON{
					Design: name, Method: m.String(),
					EWNSps: f.WNSEarly, ETNSps: f.TNSEarly,
					LWNSps: f.WNSLate, LTNSps: f.TNSLate,
					CSSSec: rep.CSSTime.Seconds(), OptSec: rep.OptTime.Seconds(),
					TotalSec: rep.Total.Seconds(), Edges: rep.ExtractedEdges,
					HPWLIncrPct: rep.HPWLIncrPct, Rounds: rep.Rounds,
					StopReason: rep.StopReason.String(),
				})
			}

			a := aggs[m]
			a.eWNSImp += eval.ImprovementPct(base.Final.WNSEarly, f.WNSEarly)
			a.eTNSImp += eval.ImprovementPct(base.Final.TNSEarly, f.TNSEarly)
			a.lWNSImp += eval.ImprovementPct(base.Final.WNSLate, f.WNSLate)
			a.lTNSImp += eval.ImprovementPct(base.Final.TNSLate, f.TNSLate)
			a.css += rep.CSSTime
			a.opt += rep.OptTime
			a.total += rep.Total
			a.edges += rep.ExtractedEdges
			a.hpwl += rep.HPWLIncrPct
			a.n++
		}
		fmt.Println()
	}

	fmt.Println("Avg. ratio (improvement vs Contest-1st input):")
	for _, m := range methods[1:] {
		a := aggs[m]
		n := float64(a.n)
		fmt.Printf("%-11s | E-WNS %+7.2f%%  E-TNS %+7.2f%% | L-WNS %+6.2f%%  L-TNS %+6.2f%% | css=%8.3fs opt=%8.3fs total=%8.3fs | edges=%9d | HPWL %+0.4f%%\n",
			m, a.eWNSImp/n, a.eTNSImp/n, a.lWNSImp/n, a.lTNSImp/n,
			a.css.Seconds(), a.opt.Seconds(), a.total.Seconds(), a.edges, a.hpwl/n)
	}

	ic, ours, fpm, oursE := aggs[iterskew.ICCSSPlus], aggs[iterskew.Ours], aggs[iterskew.FPM], aggs[iterskew.OursEarly]
	fmt.Println("\nHeadline comparisons (paper: CSS 49.11x, edges -90.05%, total vs IC-CSS+ 11.83x, total vs FPM 27.01x):")
	fmt.Printf("  CSS speedup  Ours vs IC-CSS+ : %6.2fx\n", ratio(ic.css.Seconds(), ours.css.Seconds()))
	fmt.Printf("  Edge reduction Ours vs IC-CSS+: %6.2f%%\n", 100*(1-float64(ours.edges)/float64(max64(ic.edges, 1))))
	fmt.Printf("  Total speedup Ours vs IC-CSS+ : %6.2fx\n", ratio(ic.total.Seconds(), ours.total.Seconds()))
	fmt.Printf("  Total speedup Ours-Early vs FPM: %6.2fx\n", ratio(fpm.total.Seconds(), oursE.total.Seconds()))
	fmt.Printf("  CSS speedup  Ours-Early vs FPM : %6.2fx\n", ratio(fpm.css.Seconds(), oursE.css.Seconds()))

	if *jsonPath != "" {
		writeJSON(*jsonPath, *scale, names, jrows, rec)
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := rec.WriteTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s (open in chrome://tracing or https://ui.perfetto.dev)\n", *tracePath)
	}
}

// rowJSON is one Table-I row in BENCH_cssbench.json.
type rowJSON struct {
	Design      string  `json:"design"`
	Method      string  `json:"method"`
	EWNSps      float64 `json:"ewns_ps"`
	ETNSps      float64 `json:"etns_ps"`
	LWNSps      float64 `json:"lwns_ps"`
	LTNSps      float64 `json:"ltns_ps"`
	CSSSec      float64 `json:"css_s"`
	OptSec      float64 `json:"opt_s"`
	TotalSec    float64 `json:"total_s"`
	Edges       int64   `json:"edges"`
	HPWLIncrPct float64 `json:"hpwl_incr_pct"`
	Rounds      int     `json:"rounds"`
	StopReason  string  `json:"stop_reason"`
}

// microJSON is one timer hot-path measurement.
type microJSON struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Metric      float64 `json:"metric,omitempty"`
	MetricName  string  `json:"metric_name,omitempty"`
}

type benchJSON struct {
	Scale float64     `json:"scale"`
	CPUs  int         `json:"cpus"`
	Rows  []rowJSON   `json:"rows"`
	Micro []microJSON `json:"micro"`
	// Phases is the per-phase wall-time and allocation breakdown recorded
	// during the table runs (present when -trace/-events/-httpaddr enabled
	// a recorder).
	Phases []iterskew.PhaseStat `json:"phases,omitempty"`
	// Sessions is the -sessions mode's concurrent-engine measurement.
	Sessions *sessionsJSON `json:"sessions,omitempty"`
	// ColdStart compares a second-process cold start through the graphio
	// codec (decode an artifact) against compiling from the netlist, per
	// design.
	ColdStart []coldStartJSON `json:"cold_start,omitempty"`
	// Recompile measures the ECO loop: one Graph.Recompile per single-cell
	// delta against a from-scratch compile, per design.
	Recompile []recompileJSON `json:"recompile,omitempty"`
	// Service is the -load harness's measurement of a live iterskewd daemon.
	Service *serviceJSON `json:"service,omitempty"`

	// MCMM is the -corners multi-corner benchmark/smoke block.
	MCMM *mcmmJSON `json:"mcmm,omitempty"`
}

// coldStartJSON is one design's compile-vs-decode measurement.
type coldStartJSON struct {
	Design    string  `json:"design"`
	GraphKB   float64 `json:"graph_kb"`    // Graph.Bytes() of the compiled slabs
	BlobKB    float64 `json:"artifact_kb"` // encoded artifact size
	CompileNs float64 `json:"compile_ns"`  // timing.Compile from the netlist
	EncodeNs  float64 `json:"encode_ns"`   // graphio.Write to memory
	// HashNs is the graphio.HashOf cost; a loader pays it once per design
	// and then decodes any number of artifacts against it.
	HashNs    float64 `json:"hash_ns"`
	DecodeNs  float64 `json:"decode_ns"` // graphio.ReadVerified from memory
	Speedup   float64 `json:"decode_speedup"`
	Identical bool    `json:"identical"` // decoded schedule bitwise == compiled
}

// recompileJSON is one design's per-delta ECO cost measurement.
type recompileJSON struct {
	Design        string  `json:"design"`
	DeltaNs       float64 `json:"recompile_ns_per_delta"` // single-cell move
	FullCompileNs float64 `json:"full_compile_ns"`
	Ratio         float64 `json:"compile_over_recompile"`
	FullFallbacks int     `json:"full_fallbacks"` // deltas that fell back to full compile
	Identical     bool    `json:"identical"`      // final state bitwise == fresh compile
}

// sessionsJSON records the -sessions concurrent-engine benchmark: how much
// cheaper a pooled session state is than a full timer build, and the
// throughput of N simultaneous scheduling sessions over one shared graph.
type sessionsJSON struct {
	Sessions int `json:"sessions"`
	// TimingNewNs / NewStateNs are the per-session creation costs of a full
	// timing.New build vs Graph.NewState on an existing compiled graph.
	TimingNewNs float64 `json:"timing_new_ns_per_op"`
	NewStateNs  float64 `json:"new_state_ns_per_op"`
	// StateSpeedup = TimingNewNs / NewStateNs (the compile-once dividend).
	StateSpeedup float64 `json:"new_state_speedup"`
	// SerialSec / ConcurrentSec run the same mixed job list with dedicated
	// serial timers vs engine sessions over one graph.
	SerialSec     float64 `json:"serial_jobs_s"`
	ConcurrentSec float64 `json:"concurrent_jobs_s"`
	JobsPerSec    float64 `json:"engine_jobs_per_s"`
	StatesCreated int     `json:"states_created"`
	// Identical asserts every engine job's schedule matched its serial
	// reference bit-for-bit.
	Identical bool `json:"identical_to_serial"`
}

// runSessions is the -sessions mode: see the package comment.
func runSessions(designs string, scale float64, n int, jsonPath string) error {
	name := iterskew.SuperblueNames()[0]
	if designs != "all" {
		name = strings.TrimSpace(strings.Split(designs, ",")[0])
	}
	p, err := iterskew.SuperblueProfile(name, scale)
	if err != nil {
		return err
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		return err
	}
	st := d.Stats()
	fmt.Printf("concurrent-session benchmark: %s scale %g (cells=%d ffs=%d), %d sessions, %d CPUs\n",
		name, scale, st.Cells, st.FFs, n, runtime.GOMAXPROCS(0))

	// Amortized session-creation cost: full build vs pooled state.
	g, err := timing.Compile(d, delay.Default())
	if err != nil {
		return err
	}
	sj := &sessionsJSON{Sessions: n}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := timing.New(d, delay.Default()); err != nil {
			return err
		}
	}
	sj.TimingNewNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	start = time.Now()
	for i := 0; i < n; i++ {
		g.NewState()
	}
	sj.NewStateNs = float64(time.Since(start).Nanoseconds()) / float64(n)
	sj.StateSpeedup = sj.TimingNewNs / sj.NewStateNs
	fmt.Printf("  session creation: timing.New %.0f ns, Graph.NewState %.0f ns (%.1fx cheaper)\n",
		sj.TimingNewNs, sj.NewStateNs, sj.StateSpeedup)

	// N mixed jobs: all three schedulers, both modes, what-if periods.
	jobs := make([]engine.Job, n)
	for i := range jobs {
		switch i % 4 {
		case 0:
			jobs[i] = engine.Job{Options: sched.Options{Mode: timing.Early}}
		case 1:
			jobs[i] = engine.Job{Options: sched.Options{Mode: timing.Late}}
		case 2:
			jobs[i] = engine.Job{Scheduler: iccss.Scheduler, Options: sched.Options{Mode: timing.Early}}
		case 3:
			jobs[i] = engine.Job{Scheduler: fpm.Scheduler}
		}
		if i >= 4 {
			jobs[i].Period = d.Period * (1 + 0.05*float64(i%5))
		}
	}

	// Serial references: a dedicated full timer per job.
	serial := make([]*sched.Result, n)
	start = time.Now()
	for i, job := range jobs {
		tm, err := timing.New(d, delay.Default())
		if err != nil {
			return err
		}
		if job.Period != 0 {
			tm.SetPeriod(job.Period)
		}
		s := job.Scheduler
		if s == nil {
			s = core.Scheduler
		}
		if serial[i], err = s.Schedule(tm, job.Options); err != nil {
			return err
		}
	}
	sj.SerialSec = time.Since(start).Seconds()

	e := engine.NewFromGraph(g, engine.Config{MaxInFlight: n})
	start = time.Now()
	results := e.RunAll(jobs)
	sj.ConcurrentSec = time.Since(start).Seconds()
	sj.JobsPerSec = float64(n) / sj.ConcurrentSec
	sj.StatesCreated = e.StatesCreated()

	sj.Identical = true
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("engine job %d: %w", i, r.Err)
		}
		if !sameSchedule(r.Result.Target, serial[i].Target) {
			sj.Identical = false
			fmt.Fprintf(os.Stderr, "job %d: engine schedule diverges from serial reference\n", i)
		}
	}
	fmt.Printf("  %d jobs: serial %.3fs, engine %.3fs (%.1f jobs/s, %d states created)\n",
		n, sj.SerialSec, sj.ConcurrentSec, sj.JobsPerSec, sj.StatesCreated)

	if jsonPath != "" {
		if err := writeSessions(jsonPath, sj); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if !sj.Identical {
		return fmt.Errorf("concurrent sessions diverged from serial references")
	}
	fmt.Println("  all engine schedules byte-identical to serial references")
	return nil
}

// writeSessions merges a -sessions run into the BENCH JSON at path: it sets
// the sessions block and keeps every other block as the file holds it.
func writeSessions(path string, sj *sessionsJSON) error {
	return mergeBench(path, func(out *benchJSON) { out.Sessions = sj })
}

// runGraphArtifact is the -savegraph / -loadgraph mode: persist the first
// selected design's compiled graph, or load one back, schedule on it and
// verify the schedule is bit-identical to an in-process compile (the
// codec-smoke CI target relies on the non-zero exit on divergence).
func runGraphArtifact(designs string, scale float64, savePath, loadPath string) error {
	name := iterskew.SuperblueNames()[0]
	if designs != "all" {
		name = strings.TrimSpace(strings.Split(designs, ",")[0])
	}
	p, err := iterskew.SuperblueProfile(name, scale)
	if err != nil {
		return err
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		return err
	}

	if savePath != "" {
		start := time.Now()
		g, err := timing.Compile(d, delay.Default())
		if err != nil {
			return err
		}
		compileT := time.Since(start)
		f, err := os.Create(savePath)
		if err != nil {
			return err
		}
		start = time.Now()
		if err := graphio.Write(f, g); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fi, _ := os.Stat(savePath)
		fmt.Printf("saved %s: %s scale %g, compile %v, encode %v, %d slab bytes, %d file bytes\n",
			savePath, name, scale, compileT, time.Since(start), g.Bytes(), fi.Size())
	}

	if loadPath != "" {
		start := time.Now()
		g, err := timing.Compile(d, delay.Default())
		if err != nil {
			return err
		}
		compileT := time.Since(start)
		start = time.Now()
		h, err := graphio.HashOf(d, delay.Default())
		if err != nil {
			return err
		}
		hashT := time.Since(start)
		start = time.Now()
		blob, err := os.ReadFile(loadPath)
		if err != nil {
			return err
		}
		lg, err := graphio.DecodeVerified(blob, d, delay.Default(), h)
		if err != nil {
			return err
		}
		decodeT := time.Since(start)
		want, err := scheduleTargets(g)
		if err != nil {
			return err
		}
		got, err := scheduleTargets(lg)
		if err != nil {
			return err
		}
		if !sameSchedule(got, want) {
			return fmt.Errorf("loadgraph %s: schedule on the decoded graph diverges from in-process compile", loadPath)
		}
		fmt.Printf("loaded %s: compile %v vs decode %v (%.1fx, + one-time hash %v), schedule bit-identical across %d endpoints\n",
			loadPath, compileT, decodeT, ratio(float64(compileT), float64(decodeT)), hashT, len(want))
	}
	return nil
}

// scheduleTargets runs the core scheduler to convergence on a fresh state.
func scheduleTargets(g *timing.Graph) (map[iterskew.CellID]float64, error) {
	res, err := core.Schedule(g.NewState(), core.Options{StallRounds: -1})
	if err != nil {
		return nil, err
	}
	return res.Target, nil
}

// measureColdStart times compile-from-netlist vs hash and decode-from-artifact
// for one design and verifies the decoded graph schedules identically. Every
// column is best-of-N: a cold start is a one-shot event in a fresh process,
// so the representative number excludes the GC churn the measurement loop
// itself induces by leaking one multi-megabyte graph per iteration.
func measureColdStart(name string, scale float64) (coldStartJSON, error) {
	out := coldStartJSON{Design: name}
	p, err := iterskew.SuperblueProfile(name, scale)
	if err != nil {
		return out, err
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		return out, err
	}
	m := delay.Default()

	const compIters, decIters = 5, 10
	var g *timing.Graph
	if out.CompileNs, err = bestOf(compIters, func() (err error) {
		g, err = timing.Compile(d, m)
		return err
	}); err != nil {
		return out, err
	}

	var buf bytes.Buffer
	if out.EncodeNs, err = bestOf(compIters, func() error {
		buf.Reset()
		return graphio.Write(&buf, g)
	}); err != nil {
		return out, err
	}
	out.GraphKB = float64(g.Bytes()) / 1024
	out.BlobKB = float64(buf.Len()) / 1024

	// A loader hashes once per design and then decodes any number of
	// artifacts against that hash in O(read); the cold start proper reads
	// the artifact file back and decodes it in place.
	var h graphio.Hash
	if out.HashNs, err = bestOf(decIters, func() (err error) {
		h, err = graphio.HashOf(d, m)
		return err
	}); err != nil {
		return out, err
	}

	tmp, err := os.CreateTemp("", "cssbench-*.iskg")
	if err != nil {
		return out, err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return out, err
	}
	if err := tmp.Close(); err != nil {
		return out, err
	}

	var lg *timing.Graph
	if out.DecodeNs, err = bestOf(decIters, func() error {
		blob, err := os.ReadFile(tmp.Name())
		if err != nil {
			return err
		}
		lg, err = graphio.DecodeVerified(blob, d, m, h)
		return err
	}); err != nil {
		return out, err
	}
	out.Speedup = out.CompileNs / out.DecodeNs

	want, err := scheduleTargets(g)
	if err != nil {
		return out, err
	}
	got, err := scheduleTargets(lg)
	if err != nil {
		return out, err
	}
	out.Identical = sameSchedule(got, want)
	return out, nil
}

// bestOf runs fn n times and returns its fastest run in ns. Each run starts
// on a collected heap: without the explicit GC a run pays the previous one's
// collection debt, noise a real one-shot cold start (or compile) never sees.
func bestOf(n int, fn func() error) (float64, error) {
	best := math.MaxFloat64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		best = math.Min(best, float64(time.Since(start).Nanoseconds()))
	}
	return best, nil
}

// measureRecompile times the ECO loop: a single-cell move applied through
// Graph.Recompile, against a from-scratch compile, verifying the final
// recompiled graph still schedules identically to a fresh build.
func measureRecompile(name string, scale float64) (recompileJSON, error) {
	out := recompileJSON{Design: name}
	p, err := iterskew.SuperblueProfile(name, scale)
	if err != nil {
		return out, err
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		return out, err
	}
	m := delay.Default()
	g, err := timing.Compile(d, m)
	if err != nil {
		return out, err
	}

	// Pick a movable combinational cell for the repeated delta.
	target := -1
	for ci := range d.Cells {
		if d.Cells[ci].Type.Kind == netlist.KindComb {
			pos := d.Cells[ci].Pos
			pos.X++
			if d.MoveCell(netlist.CellID(ci), pos) {
				target = ci
				break
			}
		}
	}
	if target < 0 {
		return out, fmt.Errorf("%s: no movable comb cell", name)
	}
	delta := timing.Delta{Cells: []netlist.CellID{netlist.CellID(target)}}
	if _, err := g.Recompile(delta); err != nil { // absorb the pick's move
		return out, err
	}

	const iters = 50
	dx := 1.0
	start := time.Now()
	for i := 0; i < iters; i++ {
		pos := d.Cells[target].Pos
		pos.X += dx
		if !d.MoveCell(netlist.CellID(target), pos) {
			dx = -dx
			continue
		}
		dx = -dx
		st, err := g.Recompile(delta)
		if err != nil {
			return out, err
		}
		if st.Full {
			out.FullFallbacks++
		}
	}
	out.DeltaNs = float64(time.Since(start).Nanoseconds()) / iters

	start = time.Now()
	fresh, err := timing.Compile(d, m)
	if err != nil {
		return out, err
	}
	out.FullCompileNs = float64(time.Since(start).Nanoseconds())
	out.Ratio = out.FullCompileNs / out.DeltaNs

	want, err := scheduleTargets(fresh)
	if err != nil {
		return out, err
	}
	got, err := scheduleTargets(g)
	if err != nil {
		return out, err
	}
	out.Identical = sameSchedule(got, want)
	return out, nil
}

// sameSchedule compares two target-latency schedules bit-for-bit.
func sameSchedule(a, b map[iterskew.CellID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// measure times `iters` calls of fn and derives allocs/op from the runtime
// allocation counter (cssbench is single-goroutine outside fn itself).
func measure(name string, iters int, metricName string, fn func() float64) microJSON {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var metric float64
	for i := 0; i < iters; i++ {
		metric = fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return microJSON{
		Name:        name,
		Iters:       iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
		Metric:      metric,
		MetricName:  metricName,
	}
}

// writeJSON records the Table-I rows plus extraction/propagation
// micro-timings on the first design, so the hot paths are tracked alongside
// the QoR table — and the per-design cold-start (compile vs artifact decode)
// and ECO-recompile measurements.
func writeJSON(path string, scale float64, names []string, rows []rowJSON, rec *iterskew.Recorder) {
	p, err := iterskew.SuperblueProfile(strings.TrimSpace(names[0]), scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	out := benchJSON{Scale: scale, CPUs: runtime.GOMAXPROCS(0), Rows: rows}
	if rec != nil {
		out.Phases = rec.Phases()
	}

	viol := tm.ViolatedEndpoints(timing.Late, nil)
	var edgeBuf []timing.SeqEdge
	const iters = 20
	out.Micro = append(out.Micro, measure("extract_essential_batch", iters, "edges", func() float64 {
		edgeBuf = tm.ExtractEssentialBatch(viol, timing.Late, 0, 0, edgeBuf[:0])
		return float64(len(edgeBuf))
	}))
	out.Micro = append(out.Micro, measure("extract_all_from_batch", iters, "edges", func() float64 {
		edgeBuf = tm.ExtractAllFromBatch(d.FFs, timing.Late, 0, edgeBuf[:0])
		return float64(len(edgeBuf))
	}))
	i := 0
	out.Micro = append(out.Micro, measure("incremental_update", iters, "pins", func() float64 {
		for j := i % 5; j < len(d.FFs); j += 5 {
			tm.SetExtraLatency(d.FFs[j], float64((i+j)%23))
		}
		i++
		return float64(tm.Update())
	}))
	out.Micro = append(out.Micro, measure("full_propagation_csr", iters, "pins", func() float64 {
		tm.FullUpdate()
		return float64(len(d.Pins))
	}))

	for _, name := range names {
		name = strings.TrimSpace(name)
		cs, err := measureColdStart(name, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out.ColdStart = append(out.ColdStart, cs)
		rc, err := measureRecompile(name, scale)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		out.Recompile = append(out.Recompile, rc)
		fmt.Printf("%-12s cold start: compile %.2fms vs hash %.2fms + decode %.2fms (%.1fx, %.1fx with the hash); recompile/delta %.3fms vs full %.2fms (%.1fx)\n",
			name, cs.CompileNs/1e6, cs.HashNs/1e6, cs.DecodeNs/1e6, cs.Speedup, cs.CompileNs/(cs.HashNs+cs.DecodeNs),
			rc.DeltaNs/1e6, rc.FullCompileNs/1e6, rc.Ratio)
		if !cs.Identical || !rc.Identical {
			fmt.Fprintf(os.Stderr, "%s: decoded/recompiled graph diverges from from-scratch compile\n", name)
			os.Exit(1)
		}
	}

	if err := writeTableI(path, out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s (%d rows, %d micro-timings)\n", path, len(rows), len(out.Micro))
}

// writeTableI merges a Table-I run into the BENCH JSON at path: every field
// the run measures is replaced, and the blocks it does not measure (those of
// -sessions, -load and -corners) are kept as the file holds them.
func writeTableI(path string, run benchJSON) error {
	return mergeBench(path, func(out *benchJSON) {
		run.Sessions, run.Service, run.MCMM = out.Sessions, out.Service, out.MCMM
		*out = run
	})
}

// validateTrace decodes a -trace output file and asserts the coverage the
// obs-smoke CI target relies on: a well-formed Chrome trace envelope with
// spans for the schedules, their rounds and the batch extractions.
func validateTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tf, err := obs.DecodeTrace(f)
	if err != nil {
		return err
	}
	rounds := tf.SpanCount("css.round")
	batches := tf.SpanCount("extract.batch")
	scheds := tf.SpanCount("css.schedule")
	if rounds == 0 || batches == 0 || scheds == 0 {
		return fmt.Errorf("checktrace %s: want >=1 of each span, got css.round=%d extract.batch=%d css.schedule=%d",
			path, rounds, batches, scheds)
	}
	fmt.Printf("%s ok: %d events, css.schedule=%d css.round=%d extract.batch=%d\n",
		path, len(tf.TraceEvents), scheds, rounds, batches)
	return nil
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// runSweep measures the §III-D claim: total extraction cost grows as
// O(k·m') for the iterative algorithm, with k (rounds) nearly flat in the
// circuit size, versus the critical-vertex extraction volume of IC-CSS+.
func runSweep() {
	fmt.Printf("%-8s %8s %8s | %6s %10s %12s | %10s %12s\n",
		"scale", "#FFs", "#cells", "k", "ours-edges", "ours-cssT", "ic-edges", "ic-cssT")
	for _, scale := range []float64{0.0025, 0.005, 0.01, 0.02, 0.04} {
		p, err := iterskew.SuperblueProfile("superblue18", scale)
		if err != nil {
			panic(err)
		}
		d, err := iterskew.GenerateBenchmark(p)
		if err != nil {
			panic(err)
		}
		ours, err := iterskew.RunFlow(d, iterskew.FlowConfig{Method: iterskew.Ours})
		if err != nil {
			panic(err)
		}
		ic, err := iterskew.RunFlow(d, iterskew.FlowConfig{Method: iterskew.ICCSSPlus})
		if err != nil {
			panic(err)
		}
		st := d.Stats()
		fmt.Printf("%-8g %8d %8d | %6d %10d %12s | %10d %12s\n",
			scale, st.FFs, st.Cells, ours.Rounds, ours.ExtractedEdges, ours.CSSTime,
			ic.ExtractedEdges, ic.CSSTime)
	}
}
