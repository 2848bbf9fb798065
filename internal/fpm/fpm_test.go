package fpm

import (
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// buildSkewed builds n parallel hold-violating launch/capture FF pairs: all
// captures hang off a far LCB, so every pair has the same skew-induced
// violation.
func buildSkewed(t testing.TB, n int, farDist float64) (*netlist.Design, []netlist.CellID) {
	t.Helper()
	lib := netlist.StdLib()
	d := netlist.NewDesign("skewn", 3000)
	d.Die = geom.RectOf(geom.Pt(-1e6, -1e6), geom.Pt(1e6, 1e6))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	l1 := d.AddCell("l1", lib.Get("LCB"), geom.Pt(0, 0))
	l2 := d.AddCell("l2", lib.Get("LCB"), geom.Pt(0, farDist))
	inv := lib.Get("INV")

	var launches []netlist.CellID
	var cks1, cks2 []netlist.PinID
	for i := 0; i < n; i++ {
		a := d.AddCell("a", lib.Get("DFF"), geom.Pt(0, 0))
		b := d.AddCell("b", lib.Get("DFF"), geom.Pt(0, 0))
		launches = append(launches, a)
		g := d.AddCell("g", inv, geom.Pt(0, 0))
		d.Connect("n1", d.FFQ(a), d.Cells[g].Pins[0])
		d.Connect("n2", d.OutPin(g), d.FFData(b))
		cks1 = append(cks1, d.FFClock(a))
		cks2 = append(cks2, d.FFClock(b))
	}
	cr := d.Connect("cr", d.OutPin(root), d.LCBIn(l1), d.LCBIn(l2))
	d.Nets[cr].IsClock = true
	c1 := d.Connect("c1", d.LCBOut(l1), cks1...)
	d.Nets[c1].IsClock = true
	c2 := d.Connect("c2", d.LCBOut(l2), cks2...)
	d.Nets[c2].IsClock = true
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d, launches
}

func newTimer(t testing.TB, d *netlist.Design) *timing.State {
	t.Helper()
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func TestFPMFixesSimpleHoldViolations(t *testing.T) {
	d, launches := buildSkewed(t, 4, 3000)
	tm := newTimer(t, d)
	wns0, _ := tm.WNSTNS(timing.Early)
	if wns0 >= 0 {
		t.Fatal("no early violation in fixture")
	}
	res := mustSchedule(t, tm, Options{})
	wns1, _ := tm.WNSTNS(timing.Early)
	if wns1 < -1e-6 {
		t.Errorf("FPM left violations on an easy fixture: %v -> %v", wns0, wns1)
	}
	for _, a := range launches {
		if res.Target[a] <= 0 {
			t.Errorf("launch %d got no predictive skew", a)
		}
	}
	// Late slacks untouched (huge period).
	if wnsL, _ := tm.WNSTNS(timing.Late); wnsL < -1e-6 {
		t.Errorf("FPM created late violations: %v", wnsL)
	}
}

// TestFPMExtractsFullGraph: FPM's extraction volume equals the complete
// early sequential graph — far above what the core algorithm touches.
func TestFPMExtractsFullGraph(t *testing.T) {
	d, _ := buildSkewed(t, 6, 3000)
	d2 := d.Clone()

	tmF := newTimer(t, d)
	resF := mustSchedule(t, tmF, Options{})

	tmC := newTimer(t, d2)
	resC := mustCoreSchedule(t, tmC, core.Options{Mode: timing.Early})

	// 6 FF→FF edges violate; FPM additionally extracts the clean edges
	// (none here beyond those...), at minimum it extracts one edge per
	// launch vertex: 12 FFs → at least 6 edges; the core graph holds only
	// essential ones.
	if resF.EdgesExtracted < resC.EdgesExtracted {
		t.Errorf("FPM extracted fewer edges (%d) than core (%d)", resF.EdgesExtracted, resC.EdgesExtracted)
	}
}

// TestFPMLeavesResidualsWhenCapped: when the launch's late slack cannot
// absorb the needed skew, FPM leaves a residual early violation — the
// behaviour visible in Table I's FPM rows.
func TestFPMLeavesResidualsWhenCapped(t *testing.T) {
	d, launches := buildSkewed(t, 3, 3000)
	tm := newTimer(t, d)
	wns0, _ := tm.WNSTNS(timing.Early)
	if wns0 >= 0 {
		t.Fatal("no early violation")
	}
	// Cap predictive skew below the need.
	needed := -wns0
	res := mustSchedule(t, tm, Options{
		LatencyUB: func(netlist.CellID) float64 { return needed / 2 },
	})
	wns1, _ := tm.WNSTNS(timing.Early)
	if wns1 >= 0 {
		t.Error("expected residual violations under a tight cap")
	}
	if wns1 < wns0-1e-6 {
		t.Errorf("FPM made things worse: %v -> %v", wns0, wns1)
	}
	for _, a := range launches {
		if res.Target[a] > needed/2+1e-6 {
			t.Errorf("cap violated: %v", res.Target[a])
		}
	}
}

// TestFPMPortLaunchResidual: early violations launched by input ports are
// not fixable by skew; FPM must skip them gracefully.
func TestFPMPortLaunchResidual(t *testing.T) {
	lib := netlist.StdLib()
	d := netlist.NewDesign("port", 3000)
	d.Die = geom.RectOf(geom.Pt(-1e6, -1e6), geom.Pt(1e6, 1e6))
	in := d.AddCell("in", lib.Get("PORTIN"), geom.Pt(0, 0))
	ff := d.AddCell("ff", lib.Get("DFF"), geom.Pt(0, 0))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	lcb := d.AddCell("lcb", lib.Get("LCB"), geom.Pt(0, 0))
	d.Connect("ni", d.OutPin(in), d.FFData(ff))
	cr := d.Connect("cr", d.OutPin(root), d.LCBIn(lcb))
	d.Nets[cr].IsClock = true
	cl := d.Connect("cl", d.LCBOut(lcb), d.FFClock(ff))
	d.Nets[cl].IsClock = true
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	tm := newTimer(t, d)
	wns0, _ := tm.WNSTNS(timing.Early)
	if wns0 >= 0 {
		t.Fatal("expected port-launched early violation")
	}
	res := mustSchedule(t, tm, Options{})
	wns1, _ := tm.WNSTNS(timing.Early)
	if wns1 != wns0 {
		t.Errorf("port-launched violation changed: %v -> %v", wns0, wns1)
	}
	if len(res.Target) != 0 {
		t.Errorf("unexpected skew assignments: %v", res.Target)
	}
}
