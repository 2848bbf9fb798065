package timing

import (
	"math"
	"testing"

	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
)

// fixture builds the reference design used throughout these tests:
//
//	in → gA(INV) → ffA → gB(NAND2) → ffB → out
//	root → lcb → {ffA.CK, ffB.CK}
//
// All cells sit at the origin so wire delays are zero and every arrival can
// be computed by hand (see the constants below).
type fixture struct {
	d                    *netlist.Design
	t                    *State
	in, gA, ffA, gB, ffB netlist.CellID
	out, root, lcb       netlist.CellID
}

// Hand-computed values for the fixture (StdLib parameters, zero wires):
//
//	port arrival   = 0.8·1.0                     = 0.8
//	gA out         = 0.8 + 10 + 1.2·1.5          = 12.6
//	clock base lat = 0.2·2.0 + 40 + 0.35·3.0     = 41.45
//	ffA.Q          = 41.45 + 60 + 1.4·2.4        = 104.81
//	ffB.D          = 104.81 + 14 + 1.6·1.5       = 121.21
//	ffB.Q          = 41.45 + 60 + 1.4·2.0        = 104.25
const (
	fxPortArr = 0.8
	fxFFAD    = 12.6
	fxBaseLat = 41.45
	fxFFAQ    = 104.81
	fxFFBD    = 121.21
	fxFFBQ    = 104.25
	fxPeriod  = 1000.0
)

func newFixture(t *testing.T) *fixture {
	t.Helper()
	lib := netlist.StdLib()
	d := netlist.NewDesign("fx", fxPeriod)
	d.Die = geom.RectOf(geom.Pt(-1000, -1000), geom.Pt(1000, 1000))
	d.MaxDisp = 500

	f := &fixture{d: d}
	f.in = d.AddCell("in", lib.Get("PORTIN"), geom.Pt(0, 0))
	f.gA = d.AddCell("gA", lib.Get("INV"), geom.Pt(0, 0))
	f.ffA = d.AddCell("ffA", lib.Get("DFF"), geom.Pt(0, 0))
	f.gB = d.AddCell("gB", lib.Get("NAND2"), geom.Pt(0, 0))
	f.ffB = d.AddCell("ffB", lib.Get("DFF"), geom.Pt(0, 0))
	f.out = d.AddCell("out", lib.Get("PORTOUT"), geom.Pt(0, 0))
	f.root = d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	f.lcb = d.AddCell("lcb", lib.Get("LCB"), geom.Pt(0, 0))

	d.Connect("n1", d.OutPin(f.in), d.Cells[f.gA].Pins[0])
	d.Connect("n2", d.OutPin(f.gA), d.FFData(f.ffA))
	d.Connect("n3", d.FFQ(f.ffA), d.Cells[f.gB].Pins[0], d.Cells[f.gB].Pins[1])
	d.Connect("n4", d.OutPin(f.gB), d.FFData(f.ffB))
	d.Connect("n5", d.FFQ(f.ffB), d.Cells[f.out].Pins[0])
	cn := d.Connect("cr", d.OutPin(f.root), d.LCBIn(f.lcb))
	d.Nets[cn].IsClock = true
	ln := d.Connect("cl", d.LCBOut(f.lcb), d.FFClock(f.ffA), d.FFClock(f.ffB))
	d.Nets[ln].IsClock = true

	if err := d.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	tm, err := New(d, delay.Default())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.t = tm
	return f
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("%s = %.6f, want %.6f", name, got, want)
	}
}

func TestArrivalsByHand(t *testing.T) {
	f := newFixture(t)
	tm, d := f.t, f.d
	approx(t, "port arrival", tm.ArrivalMax(d.OutPin(f.in)), fxPortArr)
	approx(t, "ffA.D atMax", tm.ArrivalMax(d.FFData(f.ffA)), fxFFAD)
	approx(t, "ffA.D atMin", tm.ArrivalMin(d.FFData(f.ffA)), fxFFAD)
	approx(t, "ffA.Q atMax", tm.ArrivalMax(d.FFQ(f.ffA)), fxFFAQ)
	approx(t, "ffB.D atMax", tm.ArrivalMax(d.FFData(f.ffB)), fxFFBD)
	approx(t, "out atMax", tm.ArrivalMax(d.Cells[f.out].Pins[0]), fxFFBQ)
}

func TestClockBaseLatency(t *testing.T) {
	f := newFixture(t)
	approx(t, "baseLat ffA", f.t.BaseLatency(f.ffA), fxBaseLat)
	approx(t, "baseLat ffB", f.t.BaseLatency(f.ffB), fxBaseLat)
	approx(t, "Latency = base with no extra", f.t.Latency(f.ffA), fxBaseLat)
}

func TestEndpointSlacks(t *testing.T) {
	f := newFixture(t)
	tm := f.t
	eA := tm.EndpointOf(f.ffA)
	eB := tm.EndpointOf(f.ffB)
	eOut := tm.EndpointOf(f.out)

	approx(t, "ffA late", tm.LateSlack(eA), fxBaseLat+fxPeriod-45-fxFFAD)
	approx(t, "ffA early", tm.EarlySlack(eA), fxFFAD-(fxBaseLat+25))
	approx(t, "ffB late", tm.LateSlack(eB), fxBaseLat+fxPeriod-45-fxFFBD)
	approx(t, "ffB early", tm.EarlySlack(eB), fxFFBD-(fxBaseLat+25))
	approx(t, "out late", tm.LateSlack(eOut), fxPeriod-fxFFBQ)
	if tm.EarlySlack(eOut) < 0 {
		t.Error("output port should have no early violation")
	}
	// ffA has an early (hold) violation by construction.
	if tm.EarlySlack(eA) >= 0 {
		t.Error("expected early violation at ffA")
	}
}

func TestLaunchSlacks(t *testing.T) {
	f := newFixture(t)
	tm := f.t
	// ffA launches exactly one path, ending at ffB — its launch late slack
	// must equal ffB's endpoint late slack.
	approx(t, "launch late ffA", tm.LaunchLateSlack(f.ffA), tm.LateSlack(tm.EndpointOf(f.ffB)))
	approx(t, "launch early ffA", tm.LaunchEarlySlack(f.ffA), tm.EarlySlack(tm.EndpointOf(f.ffB)))
	// ffB launches only the port path.
	approx(t, "launch late ffB", tm.LaunchLateSlack(f.ffB), tm.LateSlack(tm.EndpointOf(f.out)))
}

func TestWNSTNS(t *testing.T) {
	f := newFixture(t)
	tm := f.t
	wns, tns := tm.WNSTNS(Early)
	want := fxFFAD - (fxBaseLat + 25)
	approx(t, "early WNS", wns, want)
	approx(t, "early TNS", tns, want)
	wnsL, tnsL := tm.WNSTNS(Late)
	if wnsL != 0 || tnsL != 0 {
		t.Errorf("late WNS/TNS = %v/%v, want 0/0", wnsL, tnsL)
	}
	viol := tm.ViolatedEndpoints(Early, nil)
	if len(viol) != 1 || viol[0] != tm.EndpointOf(f.ffA) {
		t.Errorf("ViolatedEndpoints(Early) = %v", viol)
	}
}

func TestIncrementalMatchesFull(t *testing.T) {
	f := newFixture(t)
	tm := f.t

	tm.SetExtraLatency(f.ffA, 30)
	tm.SetExtraLatency(f.ffB, 12.5)
	tm.Update()

	fresh, err := New(f.d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetExtraLatency(f.ffA, 30)
	fresh.SetExtraLatency(f.ffB, 12.5)
	fresh.FullUpdate()

	for e := range tm.Endpoints() {
		approx(t, "late slack", tm.LateSlack(EndpointID(e)), fresh.LateSlack(EndpointID(e)))
		approx(t, "early slack", tm.EarlySlack(EndpointID(e)), fresh.EarlySlack(EndpointID(e)))
	}
	for _, ff := range f.d.FFs {
		approx(t, "launch late", tm.LaunchLateSlack(ff), fresh.LaunchLateSlack(ff))
	}
}

func TestLatencyShiftsSlack(t *testing.T) {
	f := newFixture(t)
	tm := f.t
	eA := tm.EndpointOf(f.ffA)
	before := tm.EarlySlack(eA)
	// Raising the launch latency of the in-port path's capture FF worsens
	// its early slack 1:1... raising capture latency lowers early slack.
	tm.SetExtraLatency(f.ffA, 10)
	tm.Update()
	approx(t, "early slack shift", tm.EarlySlack(eA), before-10)
	// And improves its late slack 1:1.
	tm.SetExtraLatency(f.ffA, 0)
	tm.Update()
	lateBefore := tm.LateSlack(eA)
	tm.SetExtraLatency(f.ffA, 10)
	tm.Update()
	approx(t, "late slack shift", tm.LateSlack(eA), lateBefore+10)
}

func TestMoveCellIncremental(t *testing.T) {
	f := newFixture(t)
	tm := f.t
	if !f.d.MoveCell(f.gA, geom.Pt(100, 50)) {
		t.Fatal("move rejected")
	}
	tm.DirtyCell(f.gA)
	tm.Update()

	fresh, err := New(f.d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	for e := range tm.Endpoints() {
		approx(t, "late slack after move", tm.LateSlack(EndpointID(e)), fresh.LateSlack(EndpointID(e)))
		approx(t, "early slack after move", tm.EarlySlack(EndpointID(e)), fresh.EarlySlack(EndpointID(e)))
	}
	// Moving gA away from its neighbours adds wire delay: ffA.D arrival grows.
	if tm.ArrivalMax(f.d.FFData(f.ffA)) <= fxFFAD {
		t.Error("move did not increase path delay")
	}
}

func TestReconnectionChangesLatency(t *testing.T) {
	lib := netlist.StdLib()
	// Two LCBs at different distances; reconnect the FF's clock pin from the
	// near one to the far one and check the latency shift incrementally.
	d3 := netlist.NewDesign("fx3", fxPeriod)
	in3 := d3.AddCell("in", lib.Get("PORTIN"), geom.Pt(0, 0))
	ff3 := d3.AddCell("ff", lib.Get("DFF"), geom.Pt(0, 0))
	out3 := d3.AddCell("out", lib.Get("PORTOUT"), geom.Pt(0, 0))
	root3 := d3.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	la := d3.AddCell("la", lib.Get("LCB"), geom.Pt(0, 0))
	lb := d3.AddCell("lb", lib.Get("LCB"), geom.Pt(400, 0))
	ffd := d3.AddCell("ffd", lib.Get("DFF"), geom.Pt(400, 0))
	d3.Connect("ni", d3.OutPin(in3), d3.FFData(ff3), d3.FFData(ffd))
	d3.Connect("no", d3.FFQ(ff3), d3.Cells[out3].Pins[0])
	cr3 := d3.Connect("cr", d3.OutPin(root3), d3.LCBIn(la), d3.LCBIn(lb))
	d3.Nets[cr3].IsClock = true
	ca := d3.Connect("ca", d3.LCBOut(la), d3.FFClock(ff3))
	d3.Nets[ca].IsClock = true
	cb := d3.Connect("cb", d3.LCBOut(lb), d3.FFClock(ffd))
	d3.Nets[cb].IsClock = true
	if err := d3.Validate(); err != nil {
		t.Fatal(err)
	}
	tm3, err := New(d3, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	latBefore := tm3.BaseLatency(ff3)

	// Reconnect ff3's clock from la (dist 0) to lb (dist 400).
	d3.MovePinToNet(d3.FFClock(ff3), cb)
	tm3.DirtyCell(la)
	tm3.DirtyCell(lb)
	tm3.DirtyCell(ff3)
	tm3.Update()

	latAfter := tm3.BaseLatency(ff3)
	if latAfter <= latBefore {
		t.Errorf("reconnection to distant LCB did not raise latency: %v -> %v", latBefore, latAfter)
	}
	// Cross-check against a fresh timer.
	fresh, err := New(d3, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "reconnected latency", latAfter, fresh.BaseLatency(ff3))
	for e := range tm3.Endpoints() {
		approx(t, "slack after reconnect", tm3.LateSlack(EndpointID(e)), fresh.LateSlack(EndpointID(e)))
		approx(t, "early after reconnect", tm3.EarlySlack(EndpointID(e)), fresh.EarlySlack(EndpointID(e)))
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	lib := netlist.StdLib()
	d := netlist.NewDesign("cyc", 1000)
	g1 := d.AddCell("g1", lib.Get("INV"), geom.Pt(0, 0))
	g2 := d.AddCell("g2", lib.Get("INV"), geom.Pt(0, 0))
	d.Connect("a", d.OutPin(g1), d.Cells[g2].Pins[0])
	d.Connect("b", d.OutPin(g2), d.Cells[g1].Pins[0])
	if _, err := New(d, delay.Default()); err == nil {
		t.Fatal("combinational cycle not detected")
	}
}
