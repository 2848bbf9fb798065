package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"iterskew"
	"iterskew/internal/delay"
	"iterskew/internal/eval"
	"iterskew/internal/opt"
	"iterskew/internal/oracle"
)

// The flow workload: one caller runs iterskew.RunFlow(Ours) back to back,
// round-robin over the fleet. Each op starts on a collected heap; the GC
// runs outside the timed interval, and ops_per_s counts time inside ops.

func flowOp(d *iterskew.Design) (*iterskew.FlowReport, error) {
	return iterskew.RunFlow(d, iterskew.FlowConfig{Method: iterskew.Ours})
}

// sameReport reports whether two flow reports agree bit for bit on
// everything a repeat of the same op must reproduce.
func sameReport(a, b *iterskew.FlowReport) bool {
	return a.Input == b.Input && a.Final == b.Final && a.HPWLIncrPct == b.HPWLIncrPct &&
		a.Rounds == b.Rounds && a.ExtractedEdges == b.ExtractedEdges &&
		slices.Equal(a.ConstraintErrs, b.ConstraintErrs)
}

func runFlow(cfg config, fl []design) (*outcome, error) {
	o := &outcome{}
	refs := make([]*iterskew.FlowReport, len(fl))
	var designs []*iterskew.Design
	for r := 0; r < setupRepeats; r++ {
		runtime.GC()
		t0 := time.Now()
		ds, err := parseFleet(fl)
		if err != nil {
			return nil, err
		}
		for k, d := range ds {
			runtime.GC()
			rep, err := flowOp(d)
			if err != nil {
				return nil, fmt.Errorf("flow %s: %w", fl[k].name, err)
			}
			if refs[k] == nil {
				refs[k] = rep
			} else if !sameReport(rep, refs[k]) {
				o.problem("flow %s: set-up %d differs from set-up 0", fl[k].name, r)
			}
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
		designs = ds
	}

	runs := make([]int64, len(fl))
	bad := make([]int64, len(fl))
	c0 := readCPU()
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(designs)
		runtime.GC()
		t0 := time.Now()
		rep, err := flowOp(designs[k])
		dt := time.Since(t0)
		runs[k]++
		if err != nil || !sameReport(rep, refs[k]) {
			bad[k]++
			continue
		}
		o.elapsed += dt
		o.lat = append(o.lat, ms(dt))
	}
	o.stealPct = stealPct(c0, readCPU())
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.peakRSSMB = rss

	for k, err := range parallel(len(designs), func(k int) error { return checkFlow(designs[k], refs[k]) }) {
		if err != nil {
			o.problem("flow %s: %v", fl[k].name, err)
			bad[k] = runs[k]
		}
	}
	for k := range runs {
		o.attempted += runs[k]
		o.failed += bad[k]
	}
	o.qor = flowQoR(refs)
	return o, nil
}

// flowQoR sums the residual TNS over one cycle and averages the HPWL
// increase over the fleet.
func flowQoR(refs []*iterskew.FlowReport) map[string]float64 {
	var late, early, hpwl float64
	for _, r := range refs {
		late -= r.Final.TNSLate / 1000
		early -= r.Final.TNSEarly
		hpwl += r.HPWLIncrPct / float64(len(refs))
	}
	return map[string]float64{"flow_late_tns_ns": late, "flow_early_tns_ps": early, "flow_hpwl_incr_pct": hpwl}
}

// replicaOut is what the replica of one flow op produced.
type replicaOut struct {
	report iterskew.FlowReport
	design *iterskew.Design // the final design
}

// replica runs iterskew.RunFlow(d, Ours) stage by stage, so each call into a
// layer can be timed and the final design checked: Clone, Compile and
// NewState, then for the early and the late stage ScheduleSkew, Reconnect
// and MoveCells, then Measure and CheckConstraints. With a tracer, every
// stage is a span of op and the scheduler runs over a tracedView.
func replica(d *iterskew.Design, t *tracer, op string) (*replicaOut, error) {
	root := t.begin(op, "flow.op", 0)
	stage := func(name string, fn func()) {
		s := t.begin(op, name, root.ID)
		fn()
		t.end(s)
	}
	var c *iterskew.Design
	stage("netlist.clone", func() { c = d.Clone() })
	var tm *iterskew.Timer
	var err error
	stage("timing.compile", func() {
		var g *iterskew.TimingGraph
		if g, err = iterskew.Compile(c); err == nil {
			tm = g.NewState()
		}
	})
	if err != nil {
		return nil, err
	}
	rep := iterskew.FlowReport{Method: iterskew.Ours}
	stage("eval.measure", func() { rep.Input = iterskew.Measure(tm) })
	edges0 := tm.Stats.ExtractedEdges
	for _, mode := range []iterskew.Mode{iterskew.Early, iterskew.Late} {
		var res *iterskew.ScheduleResult
		s := t.begin(op, "flow.css", root.ID)
		res, err = iterskew.ScheduleSkew(wrapView(tm, t, op, s.ID), iterskew.ScheduleOptions{Mode: mode})
		t.end(s)
		if err != nil {
			return nil, err
		}
		rep.Rounds += res.Rounds
		before := tm.Stats
		var rr *opt.ReconnectResult
		var mr *opt.MoveResult
		stage("opt.reconnect", func() { rr = opt.Reconnect(tm, res.Target, opt.ReconnectOptions{}) })
		stage("opt.move", func() { mr = opt.MoveCells(tm, opt.MoveOptions{}) })
		after := tm.Stats
		t.add("opt.reconnect_attempts", float64(rr.Attempted))
		t.add("opt.reconnect_kept", float64(rr.Reconnected))
		t.add("opt.reconnect_reverted", float64(rr.Reverted))
		t.add("opt.move_kept", float64(mr.Moves))
		t.add("opt.move_reverted", float64(mr.Reverted))
		t.add("timing.fwd_pins.opt", float64(after.ForwardPinVisits-before.ForwardPinVisits))
		t.add("timing.bwd_pins.opt", float64(after.BackwardPinVisits-before.BackwardPinVisits))
		t.add("timing.seeds.opt", float64(after.IncrementalSeeds-before.IncrementalSeeds))
	}
	stage("eval.measure", func() { rep.Final = iterskew.Measure(tm) })
	var errs []error
	stage("eval.check", func() { errs = iterskew.CheckConstraints(c) })
	t.end(root)
	rep.ExtractedEdges = tm.Stats.ExtractedEdges - edges0
	rep.HPWLIncrPct = eval.HPWLIncreasePct(rep.Input.HPWL, rep.Final.HPWL)
	for _, e := range errs {
		rep.ConstraintErrs = append(rep.ConstraintErrs, e.Error())
	}
	return &replicaOut{report: rep, design: c}, nil
}

// checkFlow replays one flow op with the replica, which must reproduce
// RunFlow's report bit for bit, and checks the final design: the oracle's
// late and early WNS/TNS must match the reported Final and the contest
// constraints must hold.
func checkFlow(d *iterskew.Design, ref *iterskew.FlowReport) error {
	out, err := replica(d, nil, "")
	if err != nil {
		return err
	}
	if !sameReport(&out.report, ref) {
		return fmt.Errorf("replica Final %+v differs from RunFlow Final %+v", out.report.Final, ref.Final)
	}
	if errs := iterskew.CheckConstraints(out.design); len(errs) > 0 {
		return fmt.Errorf("constraints: %v", errs[0])
	}
	g, err := oracle.Extract(out.design, delay.Default())
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	return matchQoR(g, nil, ref.Final.WNSEarly, ref.Final.TNSEarly, ref.Final.WNSLate, ref.Final.TNSLate)
}

// qorTol is how far an oracle WNS or TNS may sit from the program's: 1e-6 ps
// plus a relative 1e-9 for the rounding of long TNS sums.
func qorTol(v float64) float64 { return 1e-6 + 1e-9*math.Abs(v) }

// matchQoR recomputes early and late WNS/TNS from the oracle's endpoint
// slacks under the extra latencies and compares them with the reported ones.
func matchQoR(g *oracle.Graph, extra map[iterskew.CellID]float64, wnsE, tnsE, wnsL, tnsL float64) error {
	for _, c := range []struct {
		late     bool
		wns, tns float64
	}{{false, wnsE, tnsE}, {true, wnsL, tnsL}} {
		var wns, tns float64
		for _, s := range g.EndpointSlacks(c.late, extra) {
			if s < 0 {
				tns += s
				wns = min(wns, s)
			}
		}
		if math.Abs(wns-c.wns) > qorTol(wns) || math.Abs(tns-c.tns) > qorTol(tns) {
			return fmt.Errorf("oracle late=%v WNS/TNS %v/%v, program %v/%v", c.late, wns, tns, c.wns, c.tns)
		}
	}
	return nil
}

// flowPass runs one cycle of the flow op list with the replica, traced or
// not. Every op must reproduce RunFlow's report, refs, bit for bit.
func flowPass(designs []*iterskew.Design, refs []*iterskew.FlowReport, t *tracer, pass int) (*passOut, error) {
	p := &passOut{cycles: 1}
	m0 := readMem()
	for k, d := range designs {
		runtime.GC()
		t0 := time.Now()
		out, err := replica(d, t, fmt.Sprintf("f%d.%d", pass, k))
		if err != nil {
			return nil, err
		}
		p.wallMS += ms(time.Since(t0))
		p.ops++
		if !sameReport(&out.report, refs[k]) {
			p.problem("flow op %d (traced=%v): replica Final %+v differs from RunFlow's %+v", k, t != nil, out.report.Final, refs[k].Final)
		}
	}
	p.mem(m0, readMem(), len(designs))
	return p, nil
}
