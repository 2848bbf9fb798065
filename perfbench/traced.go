package main

import (
	"fmt"
	"path/filepath"
	"time"

	"iterskew"
	"iterskew/internal/serve"
)

// passOut is one pass over whole cycles of a workload's op list, untraced
// (t == nil) or traced.
type passOut struct {
	cycles   int
	ops      int
	wallMS   float64 // Σ op wall time
	allocMB  float64 // bytes allocated by the process during the pass, MiB
	gcs      float64 // GC cycles the pass triggered
	problems []string
}

func (p *passOut) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// mem records the pass's allocation and GC totals; forced GCs the pass ran
// itself between ops are not counted.
func (p *passOut) mem(a, b memSample, forced int) {
	p.allocMB = float64(b.alloc-a.alloc) / (1 << 20)
	p.gcs = float64(int(b.gcs-a.gcs) - forced)
}

// passCycles is how many cycles of the op list one pass runs: one, which is
// 16 RunFlow ops, 96 jobs or 32 uploads.
const passCycles = 1

// tracedEnv holds what the passes of every workload share in one traced run.
type tracedEnv struct {
	fl      []design
	clients int

	designs  []*iterskew.Design
	flowRefs []*iterskew.FlowReport

	daemon  *daemon
	pr      *probe
	ops     []jobOp
	jobRefs []jobRef

	budget     int64
	ingestRefs ingestRefs
}

func newTracedEnv(fl []design, clients int) (*tracedEnv, error) {
	e := &tracedEnv{fl: fl, clients: clients, pr: &probe{}, flowRefs: make([]*iterskew.FlowReport, len(fl)),
		jobRefs: make([]jobRef, len(jobSpecs(0))*len(fl)), ingestRefs: make(ingestRefs, len(fl))}
	var err error
	if e.designs, err = parseFleet(fl); err != nil {
		return nil, err
	}
	for k, d := range e.designs {
		if e.flowRefs[k], err = flowOp(d); err != nil {
			return nil, err
		}
	}
	if e.budget, err = ingestBudget(fl, clients); err != nil {
		return nil, err
	}
	cfg := serve.Config{Recorder: iterskew.NewRecorder(), Schedulers: e.pr.schedulers()}
	if e.daemon, e.ops, err = bootService(fl, clients, cfg, e.pr.handler, e.jobRefs); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *tracedEnv) close() error { return e.daemon.stop() }

// pass runs one pass of workload w; t == nil runs it untraced.
func (e *tracedEnv) pass(w string, t *tracer, n int) (*passOut, error) {
	switch w {
	case "flow":
		return flowPass(e.designs, e.flowRefs, t, n)
	case "service":
		return e.servicePass(t, n)
	default:
		return ingestPass(e.fl, e.clients, e.budget, e.ingestRefs, t, passCycles, n)
	}
}

// servicePass runs whole cycles of the job list on the instrumented daemon,
// which only forwards to the real schedulers and handler while t is nil.
// Every result must reproduce the warm-up's byte for byte.
func (e *tracedEnv) servicePass(t *tracer, n int) (*passOut, error) {
	e.pr.cur.Store(t)
	defer e.pr.cur.Store(nil)
	p := &passOut{cycles: passCycles}
	m0 := readMem()
	recs := runJobs(e.daemon, e.ops, e.jobRefs, t, e.clients, shared(p.cycles*len(e.ops), time.Time{}), fmt.Sprintf("s%d.", n))
	p.mem(m0, readMem(), 0)
	if err := firstErr(recs); err != nil {
		return nil, err
	}
	for _, r := range recs {
		p.ops++
		p.wallMS += r.latMS
	}
	return p, nil
}

// runTraced runs a traced pass of every workload. The selected workload's
// traced passes alternate with untraced ones for the configured seconds,
// which gives its tracing overhead and at least two traced passes whose
// exact counts must agree.
func runTraced(cfg config, fl []design, inf *info) (*result, error) {
	env, err := newTracedEnv(fl, cfg.clients)
	if err != nil {
		return nil, err
	}
	res, err := tracePasses(cfg, env, inf)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	return res, err
}

func tracePasses(cfg config, env *tracedEnv, inf *info) (*result, error) {
	res := &result{Correct: true}
	ledgers := map[string]*ledger{}
	mem := map[string][2]float64{} // Σ alloc MiB, Σ GCs
	var tracers []*tracer
	var untracedMS, tracedMS float64
	var untracedOps, tracedOps int
	order := []string{cfg.workload}
	for _, w := range workloads {
		if w != cfg.workload {
			order = append(order, w)
		}
	}
	for _, w := range order {
		ledgers[w] = newLedger()
		var perCycle map[string]float64
		deadline := time.Now().Add(cfg.seconds)
		for n := 0; ; n++ {
			u := &passOut{}
			if w == cfg.workload {
				var err error
				if u, err = env.pass(w, nil, 2*n); err != nil {
					return nil, fmt.Errorf("%s untraced pass: %w", w, err)
				}
			}
			t := newTracer()
			p, err := env.pass(w, t, 2*n+1)
			if err != nil {
				return nil, fmt.Errorf("%s traced pass: %w", w, err)
			}
			tracers = append(tracers, t)
			res.Attempted += int64(u.ops + p.ops)
			inf.Problems = append(append(inf.Problems, u.problems...), p.problems...)
			tol := nestedTolMS
			if w == "ingest" {
				tol = reexecTolMS
			}
			for _, err := range ledgers[w].absorb(t, p.cycles, tol) {
				inf.Problems = append(inf.Problems, fmt.Sprintf("%s: %v", w, err))
			}
			m := mem[w]
			mem[w] = [2]float64{m[0] + p.allocMB, m[1] + p.gcs}
			counts := map[string]float64{}
			for k, v := range t.counts {
				counts[k] = v / float64(p.cycles)
			}
			if perCycle == nil {
				perCycle = counts
			} else if !sameCounts(perCycle, counts) {
				inf.Problems = append(inf.Problems, fmt.Sprintf("%s: exact counts moved between traced passes: %v vs %v", w, perCycle, counts))
			}
			if w != cfg.workload {
				break
			}
			untracedMS += u.wallMS
			untracedOps += u.ops
			tracedMS += p.wallMS
			tracedOps += p.ops
			if n >= 1 && time.Now().After(deadline) {
				break
			}
		}
	}
	overhead := 100 * ((tracedMS/float64(tracedOps))/(untracedMS/float64(untracedOps)) - 1)
	inf.TraceOverheadPct = &overhead
	inf.SpansFile = filepath.Join(".bench_build", "spans-"+cfg.workload+".jsonl")
	if err := writeSpans(inf.SpansFile, tracers); err != nil {
		return nil, err
	}
	res.Metrics = layerMetrics(ledgers, mem, overhead)
	for _, q := range []map[string]float64{flowQoR(env.flowRefs), serviceQoR(env.jobRefs)} {
		for name, v := range q {
			if unit, ok := qorFigures[name]; ok {
				res.Metrics["qor."+name] = metric{v, unit}
			}
		}
	}
	if len(inf.Problems) > 0 {
		res.Correct = false
		res.Failed = int64(len(inf.Problems))
	}
	return res, nil
}

// qorFigures are the quality figures the traced run also reports, with
// their units. The flow's early TNS is left out: it is zero on every design.
var qorFigures = map[string]string{
	"flow_late_tns_ns": "ns", "flow_hpwl_incr_pct": "%",
	"service_late_tns_ns": "ns", "service_early_tns_ps": "ps",
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// layerMetrics turns the ledgers into the per-layer metrics. Times are per
// op of the workload that measured them, averaged over whole cycles, so a
// workload's self times add up to its mean traced op time; counts are per
// cycle of its op list.
func layerMetrics(l map[string]*ledger, mem map[string][2]float64, overhead float64) map[string]metric {
	f, s, in := l["flow"], l["service"], l["ingest"]
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	put("netlist.clone_ms", "ms", f.perOp("netlist.clone"))
	put("timing.compile_ms", "ms", f.perOp("timing.compile"))
	put("flow.css_ms", "ms", f.perOp("flow.css"))
	put("flow.self_ms", "ms", f.selfPerOp("flow.op"))
	put("opt.reconnect_ms", "ms", f.perOp("opt.reconnect"))
	put("opt.reconnect_attempts", "count", f.perCycle("opt.reconnect_attempts"))
	put("opt.reconnect_accept_ratio", "ratio", ratio(f.counts["opt.reconnect_kept"], f.counts["opt.reconnect_attempts"]))
	put("opt.reconnect_reverted", "count", f.perCycle("opt.reconnect_reverted"))
	put("opt.move_ms", "ms", f.perOp("opt.move"))
	put("opt.move_kept", "count", f.perCycle("opt.move_kept"))
	put("opt.move_reverted", "count", f.perCycle("opt.move_reverted"))
	put("timing.fwd_pins.opt", "count", f.perCycle("timing.fwd_pins.opt"))
	put("timing.bwd_pins.opt", "count", f.perCycle("timing.bwd_pins.opt"))
	put("timing.seeds.opt", "count", f.perCycle("timing.seeds.opt"))
	put("eval.measure_ms", "ms", f.perOp("eval.measure"))
	put("eval.check_ms", "ms", f.perOp("eval.check"))

	for _, sc := range []string{"core", "iccss", "fpm"} {
		put(sc+".schedule_ms", "ms", s.perOp(sc+".schedule"))
		put(sc+".self_ms", "ms", s.selfPerOp(sc+".schedule"))
		put(sc+".edges", "count", s.perCycle(sc+".edges"))
		if sc != "fpm" {
			put(sc+".rounds", "count", s.perCycle(sc+".rounds"))
		}
	}
	put("timing.update_ms", "ms", s.perOp("timing.update"))
	put("timing.update_calls", "count", s.perCycle("timing.update_calls"))
	put("timing.update_pins", "count", s.perCycle("timing.update_pins"))
	put("timing.cornerset_update_ms", "ms", s.perOp("timing.cornerset_update"))
	put("timing.extract_ms", "ms", s.perOp("timing.extract"))
	put("timing.extract_calls", "count", s.perCycle("timing.extract_calls"))
	put("timing.extract_edges", "count", s.perCycle("timing.extract_edges"))
	put("timing.slack_scan_ms", "ms", s.perOp("timing.slack_scan"))
	put("timing.slack_scan_calls", "count", s.perCycle("timing.slack_scan_calls"))
	put("timing.fwd_pins.css", "count", s.perCycle("timing.fwd_pins.css"))
	put("timing.bwd_pins.css", "count", s.perCycle("timing.bwd_pins.css"))
	put("timing.extract_arcs.css", "count", s.perCycle("timing.extract_arcs.css"))
	put("serve.handler_ms", "ms", s.perOp("serve.handler"))
	put("serve.self_ms", "ms", s.selfPerOp("serve.handler"))
	put("serve.wire_ms", "ms", s.selfPerOp("op"))
	put("serve.response_kb", "KB/cycle", s.perCycle("serve.response_kb"))

	put("serve.upload_ms", "ms", in.perOp("serve.handler"))
	put("serve.upload_self_ms", "ms", in.selfPerOp("serve.handler"))
	put("serve.upload_wire_ms", "ms", in.selfPerOp("op"))
	put("netio.read_ms", "ms", in.perOp("netio.read"))
	put("netio.read_mb_per_s", "MB/s", ratio(in.counts["netio.read_bytes"]/(1<<20), in.dur["netio.read"]/1e3))
	put("sched.validate_ms", "ms", in.perOp("sched.validate"))
	put("graphio.hash_ms", "ms", in.perOp("graphio.hash"))
	put("timing.compile_ms.ingest", "ms", in.perOp("timing.compile"))
	put("engine.cache_hits", "count", in.perCycle("engine.cache_hits"))
	put("engine.cache_misses", "count", in.perCycle("engine.cache_misses"))
	put("engine.cache_evicts", "count", in.perCycle("engine.cache_evicts"))

	for _, w := range workloads {
		put("runtime.alloc_mb_per_op."+w, "MB", ratio(mem[w][0], float64(l[w].ops)))
		put("runtime.gc_per_op."+w, "count", ratio(mem[w][1], float64(l[w].ops)))
	}
	put("trace.overhead_pct", "%", overhead)
	return out
}
