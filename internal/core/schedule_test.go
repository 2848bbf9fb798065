package core

import (
	"math"
	"math/rand"
	"testing"

	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

func newRand(seed int) *rand.Rand { return rand.New(rand.NewSource(int64(seed))) }

// chain builds a pipeline in→ff0→…→ffN→out with stage i containing
// stages[i] inverters, all cells at the origin, one LCB.
type chain struct {
	d   *netlist.Design
	ffs []netlist.CellID
	in  netlist.CellID
	out netlist.CellID
}

func buildChain(t testing.TB, period float64, stages []int) *chain {
	t.Helper()
	lib := netlist.StdLib()
	d := netlist.NewDesign("chain", period)
	d.Die = geom.RectOf(geom.Pt(-1e6, -1e6), geom.Pt(1e6, 1e6))
	c := &chain{d: d}

	c.in = d.AddCell("in", lib.Get("PORTIN"), geom.Pt(0, 0))
	nFF := len(stages) + 1
	for i := 0; i < nFF; i++ {
		c.ffs = append(c.ffs, d.AddCell("ff", lib.Get("DFF"), geom.Pt(0, 0)))
	}
	c.out = d.AddCell("out", lib.Get("PORTOUT"), geom.Pt(0, 0))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	lcb := d.AddCell("lcb", lib.Get("LCB"), geom.Pt(0, 0))

	inv := lib.Get("INV")
	// Buffer the input-port path so the fixture starts hold-clean (real
	// designs constrain input arrival; 12 inverters stand in for that).
	inPrev := d.OutPin(c.in)
	for j := 0; j < 12; j++ {
		gc := d.AddCell("gi", inv, geom.Pt(0, 0))
		d.Connect("n", inPrev, d.Cells[gc].Pins[0])
		inPrev = d.OutPin(gc)
	}
	d.Connect("nin", inPrev, d.FFData(c.ffs[0]))
	for s, k := range stages {
		prev := d.FFQ(c.ffs[s])
		for j := 0; j < k; j++ {
			gc := d.AddCell("g", inv, geom.Pt(0, 0))
			d.Connect("n", prev, d.Cells[gc].Pins[0])
			prev = d.OutPin(gc)
		}
		d.Connect("nd", prev, d.FFData(c.ffs[s+1]))
	}
	d.Connect("nout", d.FFQ(c.ffs[nFF-1]), d.Cells[c.out].Pins[0])

	cr := d.Connect("cr", d.OutPin(root), d.LCBIn(lcb))
	d.Nets[cr].IsClock = true
	cks := make([]netlist.PinID, nFF)
	for i, ff := range c.ffs {
		cks[i] = d.FFClock(ff)
	}
	cl := d.Connect("cl", d.LCBOut(lcb), cks...)
	d.Nets[cl].IsClock = true

	if err := d.Validate(); err != nil {
		t.Fatalf("chain invalid: %v", err)
	}
	return c
}

// buildRing builds ffA →(k1 INVs)→ ffB →(k2 INVs)→ ffA, the cycle scenario
// of §III-B2.
func buildRing(t testing.TB, period float64, k1, k2 int) (*netlist.Design, netlist.CellID, netlist.CellID) {
	t.Helper()
	lib := netlist.StdLib()
	d := netlist.NewDesign("ring", period)
	d.Die = geom.RectOf(geom.Pt(-1e6, -1e6), geom.Pt(1e6, 1e6))

	ffA := d.AddCell("ffA", lib.Get("DFF"), geom.Pt(0, 0))
	ffB := d.AddCell("ffB", lib.Get("DFF"), geom.Pt(0, 0))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	lcb := d.AddCell("lcb", lib.Get("LCB"), geom.Pt(0, 0))
	inv := lib.Get("INV")

	wire := func(from netlist.PinID, k int, to netlist.PinID) {
		prev := from
		for j := 0; j < k; j++ {
			gc := d.AddCell("g", inv, geom.Pt(0, 0))
			d.Connect("n", prev, d.Cells[gc].Pins[0])
			prev = d.OutPin(gc)
		}
		d.Connect("n", prev, to)
	}
	wire(d.FFQ(ffA), k1, d.FFData(ffB))
	wire(d.FFQ(ffB), k2, d.FFData(ffA))

	cr := d.Connect("cr", d.OutPin(root), d.LCBIn(lcb))
	d.Nets[cr].IsClock = true
	cl := d.Connect("cl", d.LCBOut(lcb), d.FFClock(ffA), d.FFClock(ffB))
	d.Nets[cl].IsClock = true
	if err := d.Validate(); err != nil {
		t.Fatalf("ring invalid: %v", err)
	}
	return d, ffA, ffB
}

func newTimer(t testing.TB, d *netlist.Design) *timing.State {
	t.Helper()
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestLateFixUnbalancedPipeline: a long stage borrows slack from a short
// one; the violation must be fully eliminated without creating early
// violations.
func TestLateFixUnbalancedPipeline(t *testing.T) {
	c := buildChain(t, 300, []int{20, 2})
	tm := newTimer(t, c.d)

	wnsL0, _ := tm.WNSTNS(timing.Late)
	wnsE0, _ := tm.WNSTNS(timing.Early)
	if wnsL0 >= 0 {
		t.Fatalf("fixture has no late violation: %v", wnsL0)
	}
	if wnsE0 < 0 {
		t.Fatalf("fixture has unexpected early violation: %v", wnsE0)
	}

	res := mustSchedule(t, tm, Options{Mode: timing.Late})

	wnsL1, tnsL1 := tm.WNSTNS(timing.Late)
	wnsE1, _ := tm.WNSTNS(timing.Early)
	if wnsL1 < -1e-6 {
		t.Errorf("late WNS not eliminated: %v (was %v)", wnsL1, wnsL0)
	}
	if tnsL1 < -1e-6 {
		t.Errorf("late TNS not eliminated: %v", tnsL1)
	}
	if wnsE1 < -1e-6 {
		t.Errorf("late optimization created early violations: %v", wnsE1)
	}
	// Only ff1 (between the stages) needs latency, roughly the violation
	// magnitude.
	got := res.Target[c.ffs[1]]
	if math.Abs(got-(-wnsL0)) > 1 {
		t.Errorf("target latency = %v, want ≈ %v", got, -wnsL0)
	}
	if res.Rounds < 1 || res.EdgesExtracted < 1 {
		t.Errorf("suspicious stats: %+v", res)
	}
	// All scheduled latencies are non-negative.
	for ff, l := range res.Target {
		if l < 0 {
			t.Errorf("negative target latency %v at %d", l, ff)
		}
	}
}

// TestCycleBound: on a two-FF ring the achievable WNS is the cycle mean;
// the algorithm must reach it exactly and freeze.
func TestCycleBound(t *testing.T) {
	d, ffA, ffB := buildRing(t, 352, 30, 20)
	tm := newTimer(t, d)

	eA, eB := tm.EndpointOf(ffA), tm.EndpointOf(ffB)
	s1 := tm.LateSlack(eB) // edge A→B (endpoint at B)
	s2 := tm.LateSlack(eA)
	if s1 >= 0 && s2 >= 0 {
		t.Fatalf("ring has no late violation: %v %v", s1, s2)
	}
	mean := (s1 + s2) / 2

	res := mustSchedule(t, tm, Options{Mode: timing.Late})
	if res.Cycles == 0 {
		t.Error("no cycle detected on a ring")
	}
	wns, _ := tm.WNSTNS(timing.Late)
	if math.Abs(wns-mean) > 1e-4 {
		t.Errorf("final WNS = %v, want cycle mean %v", wns, mean)
	}
	// Both edges equalized at the mean.
	if a, b := tm.LateSlack(eA), tm.LateSlack(eB); math.Abs(a-mean) > 1e-4 || math.Abs(b-mean) > 1e-4 {
		t.Errorf("edges not equalized: %v %v (mean %v)", a, b, mean)
	}
}

// TestEarlyFixWithSkewedLCBs: a hold violation caused by capture-side clock
// skew is fixed by raising the launch latency, without creating late
// violations.
func TestEarlyFixWithSkewedLCBs(t *testing.T) {
	lib := netlist.StdLib()
	d := netlist.NewDesign("skew", 2000)
	d.Die = geom.RectOf(geom.Pt(-1e6, -1e6), geom.Pt(1e6, 1e6))
	ffA := d.AddCell("ffA", lib.Get("DFF"), geom.Pt(0, 0))
	ffB := d.AddCell("ffB", lib.Get("DFF"), geom.Pt(0, 0))
	g := d.AddCell("g", lib.Get("INV"), geom.Pt(0, 0))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	l1 := d.AddCell("l1", lib.Get("LCB"), geom.Pt(0, 0))
	l2 := d.AddCell("l2", lib.Get("LCB"), geom.Pt(0, 3000)) // far: large latency

	d.Connect("n1", d.FFQ(ffA), d.Cells[g].Pins[0])
	d.Connect("n2", d.OutPin(g), d.FFData(ffB))
	cr := d.Connect("cr", d.OutPin(root), d.LCBIn(l1), d.LCBIn(l2))
	d.Nets[cr].IsClock = true
	c1 := d.Connect("c1", d.LCBOut(l1), d.FFClock(ffA))
	d.Nets[c1].IsClock = true
	c2 := d.Connect("c2", d.LCBOut(l2), d.FFClock(ffB))
	d.Nets[c2].IsClock = true
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	tm := newTimer(t, d)

	wnsE0, _ := tm.WNSTNS(timing.Early)
	if wnsE0 >= 0 {
		t.Fatalf("no early violation in fixture: %v (skew %v)", wnsE0, tm.BaseLatency(ffB)-tm.BaseLatency(ffA))
	}
	wnsL0, _ := tm.WNSTNS(timing.Late)
	if wnsL0 < 0 {
		t.Fatalf("unexpected late violation: %v", wnsL0)
	}

	res := mustSchedule(t, tm, Options{Mode: timing.Early})

	wnsE1, _ := tm.WNSTNS(timing.Early)
	wnsL1, _ := tm.WNSTNS(timing.Late)
	if wnsE1 < -1e-6 {
		t.Errorf("early violation not fixed: %v -> %v", wnsE0, wnsE1)
	}
	if wnsL1 < -1e-6 {
		t.Errorf("early fix created late violations: %v", wnsL1)
	}
	if res.Target[ffA] <= 0 {
		t.Errorf("launch FF got no latency: %+v", res.Target)
	}
	if res.Target[ffB] != 0 {
		t.Errorf("capture FF should not be raised in early mode: %v", res.Target[ffB])
	}
}

// TestLatencyUpperBound: the Eq-5 user bound caps the schedule.
func TestLatencyUpperBound(t *testing.T) {
	c := buildChain(t, 300, []int{20, 2})
	tm := newTimer(t, c.d)
	wns0, _ := tm.WNSTNS(timing.Late)

	const ub = 10.0
	res := mustSchedule(t, tm, Options{
		Mode:      timing.Late,
		LatencyUB: func(netlist.CellID) float64 { return ub },
	})
	for ff, l := range res.Target {
		if l > ub+1e-6 {
			t.Errorf("latency %v at %d exceeds bound %v", l, ff, ub)
		}
	}
	wns1, _ := tm.WNSTNS(timing.Late)
	// Improvement is limited by the bound: wns0 + ub (within tolerance).
	if wns1 < wns0+ub-1 || wns1 > wns0+ub+1 {
		t.Errorf("bounded WNS = %v, want ≈ %v", wns1, wns0+ub)
	}
}

// TestScheduleIdempotentWhenClean: scheduling a design with no violations is
// a no-op.
func TestScheduleIdempotentWhenClean(t *testing.T) {
	c := buildChain(t, 1500, []int{2, 2})
	tm := newTimer(t, c.d)
	if wns, _ := tm.WNSTNS(timing.Late); wns < 0 {
		t.Fatalf("fixture not clean: %v", wns)
	}
	res := mustSchedule(t, tm, Options{Mode: timing.Late})
	if len(res.Target) != 0 {
		t.Errorf("clean design got latencies: %+v", res.Target)
	}
	if res.EdgesExtracted != 0 {
		t.Errorf("clean design extracted %d edges", res.EdgesExtracted)
	}
}

// TestLongPipelineChainPropagation: violations in a deep pipeline require
// latencies that accumulate down the chain over multiple iterations.
func TestLongPipelineChainPropagation(t *testing.T) {
	// Five stages, alternating long/short: long stages violate.
	c := buildChain(t, 300, []int{20, 2, 20, 2, 20})
	tm := newTimer(t, c.d)
	wns0, tns0 := tm.WNSTNS(timing.Late)
	if wns0 >= 0 {
		t.Fatal("no violation")
	}
	res := mustSchedule(t, tm, Options{Mode: timing.Late})
	wns1, tns1 := tm.WNSTNS(timing.Late)
	if wns1 < wns0+1 {
		t.Errorf("no WNS improvement: %v -> %v", wns0, wns1)
	}
	if tns1 < tns0 {
		t.Errorf("TNS regressed: %v -> %v", tns0, tns1)
	}
	wnsE, _ := tm.WNSTNS(timing.Early)
	if wnsE < -1e-6 {
		t.Errorf("early violations created: %v", wnsE)
	}
	if res.Rounds < 2 {
		t.Errorf("expected multiple rounds, got %d", res.Rounds)
	}
	// Latencies must be monotone along the chain pressure direction — at
	// minimum, non-negative everywhere.
	for ff, l := range res.Target {
		if l < 0 {
			t.Errorf("negative latency %v at %d", l, ff)
		}
	}
}

// TestRandomizedNoOppositeViolations is the central safety property of
// §III-C1 on random pipelines: late scheduling never creates early
// violations and vice versa.
func TestRandomizedNoOppositeViolations(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		rng := newRand(seed)
		stages := make([]int, 2+rng.Intn(5))
		for i := range stages {
			stages[i] = 1 + rng.Intn(25)
		}
		period := 150 + float64(rng.Intn(300))
		c := buildChain(t, period, stages)
		tm := newTimer(t, c.d)
		wnsE0, _ := tm.WNSTNS(timing.Early)
		mustSchedule(t, tm, Options{Mode: timing.Late})
		wnsE1, _ := tm.WNSTNS(timing.Early)
		if wnsE1 < math.Min(wnsE0, 0)-1e-6 {
			t.Errorf("seed %d: early WNS degraded below zero: %v -> %v", seed, wnsE0, wnsE1)
		}
		wnsL1, _ := tm.WNSTNS(timing.Late)
		mustSchedule(t, tm, Options{Mode: timing.Early})
		wnsL2, _ := tm.WNSTNS(timing.Late)
		if wnsL2 < math.Min(wnsL1, 0)-1e-6 {
			t.Errorf("seed %d: late WNS degraded below zero: %v -> %v", seed, wnsL1, wnsL2)
		}
	}
}

// TestPerIterTrajectoryMonotoneTNS: per Alg 1, each iteration must not
// worsen the mode's TNS (slack enhancement guarantee).
func TestPerIterTrajectoryMonotoneTNS(t *testing.T) {
	c := buildChain(t, 300, []int{20, 2, 15, 3})
	tm := newTimer(t, c.d)
	_, tns0 := tm.WNSTNS(timing.Late)
	res := mustSchedule(t, tm, Options{Mode: timing.Late})
	prev := tns0
	for _, it := range res.PerIter {
		if it.TNS < prev-1e-6 {
			t.Errorf("round %d: TNS worsened %v -> %v", it.Round, prev, it.TNS)
		}
		prev = it.TNS
	}
}
