package iccss

import (
	"math"
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// buildChain mirrors the core test fixture: in →(12 INVs)→ ff0 →…→ ffN → out.
func buildChain(t testing.TB, period float64, stages []int) (*netlist.Design, []netlist.CellID) {
	t.Helper()
	lib := netlist.StdLib()
	d := netlist.NewDesign("chain", period)
	d.Die = geom.RectOf(geom.Pt(-1e6, -1e6), geom.Pt(1e6, 1e6))

	in := d.AddCell("in", lib.Get("PORTIN"), geom.Pt(0, 0))
	var ffs []netlist.CellID
	nFF := len(stages) + 1
	for i := 0; i < nFF; i++ {
		ffs = append(ffs, d.AddCell("ff", lib.Get("DFF"), geom.Pt(0, 0)))
	}
	out := d.AddCell("out", lib.Get("PORTOUT"), geom.Pt(0, 0))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	lcb := d.AddCell("lcb", lib.Get("LCB"), geom.Pt(0, 0))
	inv := lib.Get("INV")

	prev := d.OutPin(in)
	for j := 0; j < 12; j++ {
		gc := d.AddCell("gi", inv, geom.Pt(0, 0))
		d.Connect("n", prev, d.Cells[gc].Pins[0])
		prev = d.OutPin(gc)
	}
	d.Connect("nin", prev, d.FFData(ffs[0]))
	for s, k := range stages {
		prev = d.FFQ(ffs[s])
		for j := 0; j < k; j++ {
			gc := d.AddCell("g", inv, geom.Pt(0, 0))
			d.Connect("n", prev, d.Cells[gc].Pins[0])
			prev = d.OutPin(gc)
		}
		d.Connect("nd", prev, d.FFData(ffs[s+1]))
	}
	d.Connect("nout", d.FFQ(ffs[nFF-1]), d.Cells[out].Pins[0])
	cr := d.Connect("cr", d.OutPin(root), d.LCBIn(lcb))
	d.Nets[cr].IsClock = true
	cks := make([]netlist.PinID, nFF)
	for i, ff := range ffs {
		cks[i] = d.FFClock(ff)
	}
	cl := d.Connect("cl", d.LCBOut(lcb), cks...)
	d.Nets[cl].IsClock = true
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, ffs
}

func newTimer(t testing.TB, d *netlist.Design) *timing.State {
	t.Helper()
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestICCSSFixesLateViolations: IC-CSS+ must solve the same NSO problem as
// the core algorithm.
func TestICCSSFixesLateViolations(t *testing.T) {
	d, _ := buildChain(t, 300, []int{20, 2})
	tm := newTimer(t, d)
	wns0, _ := tm.WNSTNS(timing.Late)
	if wns0 >= 0 {
		t.Fatal("no late violation in fixture")
	}
	res := mustSchedule(t, tm, Options{Mode: timing.Late})
	wns1, _ := tm.WNSTNS(timing.Late)
	if wns1 < -1e-6 {
		t.Errorf("late WNS not eliminated: %v -> %v", wns0, wns1)
	}
	wnsE, _ := tm.WNSTNS(timing.Early)
	if wnsE < -1e-6 {
		t.Errorf("early violations created: %v", wnsE)
	}
	if res.CriticalVerts == 0 {
		t.Error("no critical vertices extracted")
	}
}

// TestICCSSMatchesCoreQuality: both algorithms reach the same final slack on
// identical inputs (the Table-I observation that IC-CSS+ and Ours tie on
// WNS/TNS), while IC-CSS+ extracts at least as many edges.
func TestICCSSMatchesCoreQuality(t *testing.T) {
	for _, stages := range [][]int{{20, 2}, {15, 3, 18, 2}, {25, 1, 10}} {
		dA, _ := buildChain(t, 300, stages)
		dB := dA.Clone()

		tmA := newTimer(t, dA)
		tmB := newTimer(t, dB)

		resCore := mustCore(t, tmA, core.Options{Mode: timing.Late})
		resIC := mustSchedule(t, tmB, Options{Mode: timing.Late})

		wnsA, tnsA := tmA.WNSTNS(timing.Late)
		wnsB, tnsB := tmB.WNSTNS(timing.Late)
		if math.Abs(wnsA-wnsB) > 0.5 {
			t.Errorf("stages %v: WNS mismatch core=%v iccss=%v", stages, wnsA, wnsB)
		}
		if math.Abs(tnsA-tnsB) > 2 {
			t.Errorf("stages %v: TNS mismatch core=%v iccss=%v", stages, tnsA, tnsB)
		}
		if resIC.EdgesExtracted < resCore.EdgesExtracted {
			t.Errorf("stages %v: IC-CSS+ extracted fewer edges (%d) than core (%d)",
				stages, resIC.EdgesExtracted, resCore.EdgesExtracted)
		}
	}
}

// TestICCSSExtractsNonEssentialEdges: on a design with one violating and
// many clean fanout paths from a critical vertex, IC-CSS+ extracts them all
// while the core algorithm extracts only the violating one. This is the
// paper's Fig 2 contrast.
func TestICCSSExtractsNonEssential(t *testing.T) {
	lib := netlist.StdLib()
	d := netlist.NewDesign("fan", 300)
	d.Die = geom.RectOf(geom.Pt(-1e6, -1e6), geom.Pt(1e6, 1e6))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	lcb := d.AddCell("lcb", lib.Get("LCB"), geom.Pt(0, 0))
	inv := lib.Get("INV")

	src := d.AddCell("src", lib.Get("DFF"), geom.Pt(0, 0))
	var cks []netlist.PinID
	cks = append(cks, d.FFClock(src))

	// One long (violating) branch and 8 short (clean) branches.
	fanPins := []netlist.PinID{}
	mkBranch := func(k int) {
		ff := d.AddCell("ff", lib.Get("DFF"), geom.Pt(0, 0))
		cks = append(cks, d.FFClock(ff))
		prev := netlist.NoPin
		for j := 0; j < k; j++ {
			gc := d.AddCell("g", inv, geom.Pt(0, 0))
			if prev == netlist.NoPin {
				fanPins = append(fanPins, d.Cells[gc].Pins[0])
			} else {
				d.Connect("n", prev, d.Cells[gc].Pins[0])
			}
			prev = d.OutPin(gc)
		}
		d.Connect("n", prev, d.FFData(ff))
	}
	mkBranch(25) // violating at T=300
	for i := 0; i < 8; i++ {
		mkBranch(2)
	}
	d.Connect("nq", d.FFQ(src), fanPins...)
	cr := d.Connect("cr", d.OutPin(root), d.LCBIn(lcb))
	d.Nets[cr].IsClock = true
	cl := d.Connect("cl", d.LCBOut(lcb), cks...)
	d.Nets[cl].IsClock = true
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}

	d2 := d.Clone()
	tmCore := newTimer(t, d)
	tmIC := newTimer(t, d2)

	resCore := mustCore(t, tmCore, core.Options{Mode: timing.Late})
	resIC := mustSchedule(t, tmIC, Options{Mode: timing.Late})

	if resCore.EdgesExtracted >= resIC.EdgesExtracted {
		t.Errorf("expected core (%d edges) << iccss (%d edges)",
			resCore.EdgesExtracted, resIC.EdgesExtracted)
	}
	// Core should have extracted essentially only the violating edge(s).
	if resCore.EdgesExtracted > 3 {
		t.Errorf("core extracted %d edges, expected <= 3", resCore.EdgesExtracted)
	}
	// IC-CSS+ pulled the whole fanout of the critical vertex (9 branches).
	if resIC.EdgesExtracted < 9 {
		t.Errorf("iccss extracted %d edges, expected >= 9", resIC.EdgesExtracted)
	}
	// Quality still matches.
	wnsA, _ := tmCore.WNSTNS(timing.Late)
	wnsB, _ := tmIC.WNSTNS(timing.Late)
	if math.Abs(wnsA-wnsB) > 0.5 {
		t.Errorf("WNS mismatch: core=%v iccss=%v", wnsA, wnsB)
	}
}

// TestICCSSHonorsLatencyBound: Eq-5 bounds hold for IC-CSS+ too.
func TestICCSSHonorsLatencyBound(t *testing.T) {
	d, _ := buildChain(t, 300, []int{20, 2})
	tm := newTimer(t, d)
	const ub = 10.0
	res := mustSchedule(t, tm, Options{
		Mode:      timing.Late,
		LatencyUB: func(netlist.CellID) float64 { return ub },
	})
	for ff, l := range res.Target {
		if l > ub+1e-6 {
			t.Errorf("latency %v at %d exceeds bound", l, ff)
		}
	}
}

// TestICCSSEarlyMode: IC-CSS+ fixes hold violations like the core algorithm.
func TestICCSSEarlyMode(t *testing.T) {
	lib := netlist.StdLib()
	d := netlist.NewDesign("skew", 2000)
	d.Die = geom.RectOf(geom.Pt(-1e6, -1e6), geom.Pt(1e6, 1e6))
	ffA := d.AddCell("ffA", lib.Get("DFF"), geom.Pt(0, 0))
	ffB := d.AddCell("ffB", lib.Get("DFF"), geom.Pt(0, 0))
	g := d.AddCell("g", lib.Get("INV"), geom.Pt(0, 0))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	l1 := d.AddCell("l1", lib.Get("LCB"), geom.Pt(0, 0))
	l2 := d.AddCell("l2", lib.Get("LCB"), geom.Pt(0, 3000))
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
	if wns, _ := tm.WNSTNS(timing.Early); wns >= 0 {
		t.Fatal("no early violation")
	}
	mustSchedule(t, tm, Options{Mode: timing.Early})
	if wns, _ := tm.WNSTNS(timing.Early); wns < -1e-6 {
		t.Errorf("early violation not fixed: %v", wns)
	}
	if wns, _ := tm.WNSTNS(timing.Late); wns < -1e-6 {
		t.Errorf("late violations created: %v", wns)
	}
}
