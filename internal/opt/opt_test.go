package opt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

func newTimer(t testing.TB, d *netlist.Design) *timing.Timer {
	t.Helper()
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// buildGrid builds a chain design with a ring of LCBs at various distances
// so reconnection has real choices: in →(12 INVs)→ ff0 →(k INVs)→ ff1 → out.
func buildGrid(t testing.TB, period float64, k int, nLCB int) (*netlist.Design, [2]netlist.CellID) {
	t.Helper()
	lib := netlist.StdLib()
	d := netlist.NewDesign("grid", period)
	d.Die = geom.RectOf(geom.Pt(-20000, -20000), geom.Pt(20000, 20000))
	d.MaxDisp = 500

	in := d.AddCell("in", lib.Get("PORTIN"), geom.Pt(0, 0))
	ff0 := d.AddCell("ff0", lib.Get("DFF"), geom.Pt(0, 0))
	ff1 := d.AddCell("ff1", lib.Get("DFF"), geom.Pt(0, 0))
	out := d.AddCell("out", lib.Get("PORTOUT"), geom.Pt(0, 0))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	inv := lib.Get("INV")

	prev := d.OutPin(in)
	for j := 0; j < 12; j++ {
		gc := d.AddCell("gi", inv, geom.Pt(0, 0))
		d.Connect("n", prev, d.Cells[gc].Pins[0])
		prev = d.OutPin(gc)
	}
	d.Connect("nin", prev, d.FFData(ff0))
	prev = d.FFQ(ff0)
	for j := 0; j < k; j++ {
		gc := d.AddCell("g", inv, geom.Pt(0, 0))
		d.Connect("n", prev, d.Cells[gc].Pins[0])
		prev = d.OutPin(gc)
	}
	d.Connect("nd", prev, d.FFData(ff1))
	d.Connect("nout", d.FFQ(ff1), d.Cells[out].Pins[0])

	// LCBs at graduated distances; dummy FFs keep each output net driven.
	var lcbIns []netlist.PinID
	var firstLCB netlist.CellID
	for i := 0; i < nLCB; i++ {
		dist := float64(i) * 400
		lcb := d.AddCell(fmt.Sprintf("lcb%d", i), lib.Get("LCB"), geom.Pt(dist, 0))
		if i == 0 {
			firstLCB = lcb
		}
		lcbIns = append(lcbIns, d.LCBIn(lcb))
		cn := d.Connect(fmt.Sprintf("cl%d", i), d.LCBOut(lcb))
		d.Nets[cn].IsClock = true
	}
	cr := d.Connect("cr", d.OutPin(root), lcbIns...)
	d.Nets[cr].IsClock = true
	// Both FFs start on the nearest LCB.
	d.AddSink(d.Pins[d.LCBOut(firstLCB)].Net, d.FFClock(ff0))
	d.AddSink(d.Pins[d.LCBOut(firstLCB)].Net, d.FFClock(ff1))

	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Time the I/O against the nominal clock insertion delay.
	tmp, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	d.PortLatency = tmp.BaseLatency(ff0)
	return d, [2]netlist.CellID{ff0, ff1}
}

// TestReconnectRealizesTarget: CSS computes a target for ff1; reconnection
// must realize it physically within a reasonable tolerance and actually fix
// the late violation without the predictive latency.
func TestReconnectRealizesTarget(t *testing.T) {
	d, ffs := buildGrid(t, 300, 20, 24)
	tm := newTimer(t, d)
	wns0, _ := tm.WNSTNS(timing.Late)
	if wns0 >= 0 {
		t.Fatal("no late violation in fixture")
	}

	res := mustCoreSchedule(t, tm, core.Options{Mode: timing.Late})
	if res.Target[ffs[1]] <= 0 {
		t.Fatalf("CSS produced no target for ff1: %+v", res.Target)
	}

	rres := Reconnect(tm, res.Target, ReconnectOptions{})
	if rres.Reconnected == 0 {
		t.Fatal("nothing reconnected")
	}
	// All predictive latencies removed.
	for _, ff := range d.FFs {
		if tm.ExtraLatency(ff) != 0 {
			t.Errorf("extra latency left on %d", ff)
		}
	}
	wns1, _ := tm.WNSTNS(timing.Late)
	// The physical fix should recover most of the violation.
	if wns1 < wns0*0.3 {
		t.Errorf("physical late WNS %v did not improve enough from %v", wns1, wns0)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("design invalid after reconnection: %v", err)
	}
}

// TestReconnectRespectsFanoutLimit: a full LCB is never chosen.
func TestReconnectRespectsFanoutLimit(t *testing.T) {
	d, ffs := buildGrid(t, 300, 20, 24)
	d.LCBMaxFanout = 1 // every non-empty LCB is full
	// Pre-fill every distant LCB with a dummy FF so they are all at limit.
	lib := netlist.StdLib()
	for _, lcb := range d.LCBs {
		net := d.Pins[d.LCBOut(lcb)].Net
		if len(d.Nets[net].Sinks) == 0 {
			ff := d.AddCell("pad", lib.Get("DFF"), d.Cells[lcb].Pos)
			d.AddSink(net, d.FFClock(ff))
		}
	}
	tm := newTimer(t, d)
	res := mustCoreSchedule(t, tm, core.Options{Mode: timing.Late})
	rres := Reconnect(tm, res.Target, ReconnectOptions{})
	if rres.Reconnected != 0 {
		t.Errorf("reconnected %d FFs despite all LCBs at fanout limit", rres.Reconnected)
	}
	_ = ffs
}

// TestReconnectOncePerLCB: with MaxPerLCB=1 two FFs wanting the same spot
// must land on different LCBs.
func TestReconnectOncePerLCB(t *testing.T) {
	d, _ := buildGrid(t, 300, 20, 24)
	tm := newTimer(t, d)
	// Two artificial identical targets.
	targets := map[netlist.CellID]float64{
		d.FFs[0]: 40,
		d.FFs[1]: 40,
	}
	Reconnect(tm, targets, ReconnectOptions{MaxPerLCB: 1})
	l0 := d.LCBofFF(d.FFs[0])
	l1 := d.LCBofFF(d.FFs[1])
	if l0 == l1 && l0 != netlist.NoCell {
		// Both may have stayed on the original LCB only if nothing was
		// reconnected at all; otherwise they must differ.
		if d.LCBFanout(l0) == 2 && l0 != d.LCBs[0] {
			t.Errorf("both FFs reconnected to the same LCB %d", l0)
		}
	}
}

// TestMoveCellsFixesPortHoldViolation: an input-port-launched hold violation
// (unfixable by CSS) is repaired by lengthening the path physically.
func TestMoveCellsFixesPortHoldViolation(t *testing.T) {
	lib := netlist.StdLib()
	d := netlist.NewDesign("mv", 3000)
	d.Die = geom.RectOf(geom.Pt(-5000, -5000), geom.Pt(5000, 5000))
	d.MaxDisp = 800

	in := d.AddCell("in", lib.Get("PORTIN"), geom.Pt(0, 0))
	g1 := d.AddCell("g1", lib.Get("INV"), geom.Pt(0, 0))
	g2 := d.AddCell("g2", lib.Get("INV"), geom.Pt(0, 0))
	ff := d.AddCell("ff", lib.Get("DFF"), geom.Pt(0, 0))
	out := d.AddCell("out", lib.Get("PORTOUT"), geom.Pt(0, 0))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	lcb := d.AddCell("lcb", lib.Get("LCB"), geom.Pt(0, 0))
	d.Connect("n1", d.OutPin(in), d.Cells[g1].Pins[0])
	d.Connect("n2", d.OutPin(g1), d.Cells[g2].Pins[0])
	d.Connect("n3", d.OutPin(g2), d.FFData(ff))
	d.Connect("n4", d.FFQ(ff), d.Cells[out].Pins[0])
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
		t.Fatal("no early violation in fixture")
	}
	res := MoveCells(tm, MoveOptions{})
	wns1, _ := tm.WNSTNS(timing.Early)
	if wns1 <= wns0 {
		t.Errorf("no early improvement: %v -> %v (moves=%d)", wns0, wns1, res.Moves)
	}
	if wns1 < -eps {
		t.Logf("residual early WNS %v (fixture may need more displacement)", wns1)
	}
	if res.Moves == 0 {
		t.Error("no moves recorded")
	}
	// Late timing must not be broken.
	if wnsL, _ := tm.WNSTNS(timing.Late); wnsL < -eps {
		t.Errorf("movement created late violations: %v", wnsL)
	}
	// Displacement constraint honored.
	for i := range d.Cells {
		c := netlist.CellID(i)
		if disp := d.Displacement(c); disp > d.MaxDisp+eps {
			t.Errorf("cell %d displaced %v > %v", i, disp, d.MaxDisp)
		}
	}
}

// TestMoveCellsNoViolationsNoOp: nothing moves on a hold-clean design.
func TestMoveCellsNoViolationsNoOp(t *testing.T) {
	d, _ := buildGrid(t, 1500, 5, 4)
	tm := newTimer(t, d)
	if wns, _ := tm.WNSTNS(timing.Early); wns < 0 {
		t.Skip("fixture unexpectedly violating")
	}
	hpwl0 := d.HPWL()
	res := MoveCells(tm, MoveOptions{})
	if res.Moves != 0 {
		t.Errorf("moved %d cells on a clean design", res.Moves)
	}
	if d.HPWL() != hpwl0 {
		t.Error("HPWL changed on a clean design")
	}
}

// TestOptimizeEndToEnd: the combined §IV phase realizes an early fix
// (reconnection raises the launch FF's latency) plus movement cleanup.
func TestOptimizeEndToEnd(t *testing.T) {
	d, _ := buildGrid(t, 300, 20, 24)
	tm := newTimer(t, d)
	wns0, _ := tm.WNSTNS(timing.Late)
	res := mustCoreSchedule(t, tm, core.Options{Mode: timing.Late})
	o := Optimize(tm, res.Target, Options{})
	if o.Reconnect == nil || o.Move == nil {
		t.Fatal("missing sub-results")
	}
	wns1, _ := tm.WNSTNS(timing.Late)
	if wns1 < wns0*0.3 {
		t.Errorf("combined optimization ineffective: %v -> %v", wns0, wns1)
	}
	if math.IsNaN(wns1) {
		t.Fatal("NaN WNS")
	}
}

// TestKeepBestMatchesSort: the bounded candidate selection returns exactly
// the first k of a full sort by (offset, LCB), in order, ties included.
func TestKeepBestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n, k := rng.Intn(40), 1+rng.Intn(10)
		all := make([]cand, n)
		for i := range all {
			// Few distinct offsets, so ties on the offset are common.
			all[i] = cand{lcb: netlist.CellID(rng.Intn(1000)), off: float64(rng.Intn(6))}
		}
		var got []cand
		for _, c := range all {
			got = keepBest(got, c, k)
		}
		want := slices.Clone(all)
		sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
		if len(want) > k {
			want = want[:k]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d k=%d): kept %v, sort gives %v", trial, n, k, got, want)
		}
	}
}
