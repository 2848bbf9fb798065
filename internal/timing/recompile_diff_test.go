package timing_test

import (
	"fmt"
	"math"
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/fuzz"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// requireSlabsEqual asserts that two compiled graphs are identical: integer
// structure exactly, snapshot floats — arc delays included — bit-for-bit.
func requireSlabsEqual(t *testing.T, step string, got, want *timing.Graph) {
	t.Helper()
	a, b := got.Slabs(), want.Slabs()

	intsEq := func(name string, g, w []int32) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d, want %d", step, name, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: %s[%d] = %d, want %d", step, name, i, g[i], w[i])
			}
		}
	}
	bitsEq := func(name string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d, want %d", step, name, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %v (bits %x), want %v (bits %x)",
					step, name, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
			}
		}
	}

	if len(a.InData) != len(b.InData) {
		t.Fatalf("%s: inData length %d, want %d", step, len(a.InData), len(b.InData))
	}
	for i := range a.InData {
		if a.InData[i] != b.InData[i] {
			t.Fatalf("%s: inData[%d] = %v, want %v", step, i, a.InData[i], b.InData[i])
		}
	}
	intsEq("level", a.Level, b.Level)
	if a.MaxLvl != b.MaxLvl {
		t.Fatalf("%s: maxLvl %d, want %d", step, a.MaxLvl, b.MaxLvl)
	}
	if len(a.Order) != len(b.Order) {
		t.Fatalf("%s: order length %d, want %d", step, len(a.Order), len(b.Order))
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("%s: order[%d] = %d, want %d", step, i, a.Order[i], b.Order[i])
		}
	}
	intsEq("fwdOff", a.FwdOff, b.FwdOff)
	intsEq("bwdOff", a.BwdOff, b.BwdOff)
	intsEq("bucketOff", a.BucketOff, b.BucketOff)
	arcsEq := func(name string, g, w []timing.Arc) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s length %d, want %d", step, name, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: %s[%d] = %+v, want %+v", step, name, i, g[i], w[i])
			}
		}
	}
	arcsEq("fwdArc", a.FwdArc, b.FwdArc)
	arcsEq("bwdArc", a.BwdArc, b.BwdArc)
	if len(a.Endpoints) != len(b.Endpoints) {
		t.Fatalf("%s: endpoints length %d, want %d", step, len(a.Endpoints), len(b.Endpoints))
	}
	for i := range a.Endpoints {
		if a.Endpoints[i] != b.Endpoints[i] {
			t.Fatalf("%s: endpoint[%d] = %+v, want %+v", step, i, a.Endpoints[i], b.Endpoints[i])
		}
	}
	for i := range a.EndpointOf {
		if a.EndpointOf[i] != b.EndpointOf[i] {
			t.Fatalf("%s: endpointOf[%d] = %d, want %d", step, i, a.EndpointOf[i], b.EndpointOf[i])
		}
	}
	intsEq("ffIdx", a.FFIdx, b.FFIdx)

	bitsEq("snapAtMin", a.SnapAtMin, b.SnapAtMin)
	bitsEq("snapAtMax", a.SnapAtMax, b.SnapAtMax)
	bitsEq("snapReqMin", a.SnapReqMin, b.SnapReqMin)
	bitsEq("snapReqMax", a.SnapReqMax, b.SnapReqMax)
	bitsEq("snapBaseLat", a.SnapBaseLat, b.SnapBaseLat)
	bitsEq("snapDIn", a.SnapDIn, b.SnapDIn)
	if a.SnapStats != b.SnapStats {
		t.Fatalf("%s: snapStats %+v, want %+v", step, a.SnapStats, b.SnapStats)
	}
}

// requireSameSchedule runs the iterative scheduler over states from both
// graphs and asserts bit-identical targets and per-flip-flop latencies.
func requireSameSchedule(t *testing.T, step string, d *netlist.Design, got, want *timing.Graph) {
	t.Helper()
	sa, sb := got.NewState(), want.NewState()
	ra, ea := core.Schedule(sa, core.Options{StallRounds: -1})
	rb, eb := core.Schedule(sb, core.Options{StallRounds: -1})
	if (ea == nil) != (eb == nil) {
		t.Fatalf("%s: scheduler errors diverge: recompiled %v, fresh %v", step, ea, eb)
	}
	if ea != nil {
		return
	}
	if len(ra.Target) != len(rb.Target) {
		t.Fatalf("%s: target has %d entries, want %d", step, len(ra.Target), len(rb.Target))
	}
	for c, v := range rb.Target {
		if math.Float64bits(ra.Target[c]) != math.Float64bits(v) {
			t.Fatalf("%s: target[%d] = %v, want %v", step, c, ra.Target[c], v)
		}
	}
	for _, ff := range d.FFs {
		if math.Float64bits(sa.ExtraLatency(ff)) != math.Float64bits(sb.ExtraLatency(ff)) {
			t.Fatalf("%s: flip-flop %d latency %v, want %v", step, ff, sa.ExtraLatency(ff), sb.ExtraLatency(ff))
		}
	}
}

// checkRecompileSeed drives one fuzzed design through an ECO script — moves,
// a resize, a data rewire, an LCB reconnection, a port-timing change — and
// after every edit requires g.Recompile(delta) to reproduce a from-scratch
// Compile bit-for-bit, both in the slab view and in scheduling results.
func checkRecompileSeed(t *testing.T, cfg fuzz.Config) {
	t.Helper()
	seed := cfg.Seed
	d, err := fuzz.Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	m := delay.Default()
	g, err := timing.Compile(d, m)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}

	step := func(name string, delta timing.Delta) {
		t.Helper()
		st, rerr := g.Recompile(delta)
		fresh, ferr := timing.Compile(d, m)
		if (rerr == nil) != (ferr == nil) {
			t.Fatalf("seed %d %s: errors diverge: recompile %v, compile %v", seed, name, rerr, ferr)
		}
		if rerr != nil {
			t.Fatalf("seed %d %s: %v", seed, name, rerr)
		}
		requireSlabsEqual(t, name, g, fresh)
		requireSameSchedule(t, name, d, g, fresh)
		_ = st
	}

	lib := netlist.StdLib()

	// Delay-only delta: nudge the first movable combinational cell.
	var comb netlist.CellID = netlist.NoCell
	for i := range d.Cells {
		if d.Cells[i].Type.Kind == netlist.KindComb && !d.Cells[i].Fixed {
			comb = netlist.CellID(i)
			break
		}
	}
	if comb != netlist.NoCell {
		pos := d.Cells[comb].Pos
		if d.MoveCell(comb, geom.Pt(pos.X+2, pos.Y-1)) {
			step("move-comb", timing.Delta{Cells: []netlist.CellID{comb}})
		}
		// Resize delta: swap to the next drive strength.
		if next := lib.Upsize(d.Cells[comb].Type); next != nil && d.SwapType(comb, next) {
			step("upsize-comb", timing.Delta{Cells: []netlist.CellID{comb}})
		}
	}

	// Flip-flop move: shifts its clock wire delay and output load.
	if len(d.FFs) > 0 {
		ff := d.FFs[0]
		pos := d.Cells[ff].Pos
		if d.MoveCell(ff, geom.Pt(pos.X-3, pos.Y+2)) {
			step("move-ff", timing.Delta{Cells: []netlist.CellID{ff}})
		}
	}

	// Structural delta: rewire a combinational input pin onto a source-driven
	// net (the new driver sits at level 0, so no cycle can form).
	if comb != netlist.NoCell && len(d.FFs) > 0 {
		pin := d.Cells[comb].Pins[0]
		oldNet := d.Pins[pin].Net
		newNet := d.Pins[d.FFQ(d.FFs[len(d.FFs)-1])].Net
		if oldNet != netlist.NoNet && newNet != netlist.NoNet && oldNet != newNet {
			d.MovePinToNet(pin, newNet)
			step("rewire-sink", timing.Delta{
				Nets: []netlist.NetID{oldNet, newNet},
				Pins: []netlist.PinID{pin},
			})
		}
	}

	// Clock-structural delta: reconnect a flip-flop to a different LCB.
	if len(d.LCBs) >= 2 && len(d.FFs) > 0 {
		ff := d.FFs[0]
		ck := d.FFClock(ff)
		oldNet := d.Pins[ck].Net
		newNet := d.Pins[d.LCBOut(d.LCBs[1])].Net
		if oldNet != netlist.NoNet && newNet != netlist.NoNet && oldNet != newNet {
			d.MovePinToNet(ck, newNet)
			step("reconnect-lcb", timing.Delta{
				Nets: []netlist.NetID{oldNet, newNet},
				Pins: []netlist.PinID{ck},
			})
		}
	}

	// Port-timing delta: stretch the period and add an input delay.
	d.Period *= 1.05
	if len(d.InPorts) > 0 {
		d.SetInputDelay(d.InPorts[0], 7.5)
	}
	step("port-timing", timing.Delta{PortTiming: true})
}

// TestRecompileMatchesCompile is the differential acceptance suite for
// Graph.Recompile: every fuzz generator topology (seeds cycle through them),
// scripted ECO edits, bitwise identity against a from-scratch Compile.
func TestRecompileMatchesCompile(t *testing.T) {
	// Every topology explicitly, two seeds each ...
	topos := []fuzz.Topology{
		fuzz.TopoMixedBench, fuzz.TopoRing, fuzz.TopoReconvergent,
		fuzz.TopoHoldHeavy, fuzz.TopoIslands, fuzz.TopoSingleLoop,
	}
	for _, topo := range topos {
		for _, seed := range []int64{1, 17} {
			cfg := fuzz.Config{Topology: topo, FFs: 14, Ports: 2, Seed: seed}
			t.Run(fmt.Sprintf("%s-seed%d", topo, seed), func(t *testing.T) {
				checkRecompileSeed(t, cfg)
			})
		}
	}
	// ... plus the randomized seed sweep the other fuzz suites use.
	for seed := int64(0); seed < 12; seed++ {
		cfg := fuzz.FromSeed(seed)
		t.Run(fmt.Sprintf("seed%d-%s", seed, cfg.Topology), func(t *testing.T) {
			checkRecompileSeed(t, cfg)
		})
	}
}

// TestRecompileFallsBackOnShapeChange pins the fallback path: growing the
// design (new cells and nets) must route through a full Compile and still
// match a from-scratch build.
func TestRecompileFallsBackOnShapeChange(t *testing.T) {
	d, err := fuzz.Generate(fuzz.Config{Topology: fuzz.TopoMixedBench, FFs: 12, Ports: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := delay.Default()
	g, err := timing.Compile(d, m)
	if err != nil {
		t.Fatal(err)
	}
	lib := netlist.StdLib()
	buf := d.AddCell("eco_buf", lib.Get("BUF"), d.Cells[d.FFs[0]].Pos)
	q := d.FFQ(d.FFs[0])
	if qNet := d.Pins[q].Net; qNet != netlist.NoNet {
		d.AddSink(qNet, d.Cells[buf].Pins[0])
	}
	st, err := g.Recompile(timing.Delta{Cells: []netlist.CellID{buf}})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatalf("shape change must trigger a full rebuild, got %+v", st)
	}
	fresh, err := timing.Compile(d, m)
	if err != nil {
		t.Fatal(err)
	}
	requireSlabsEqual(t, "shape-change", g, fresh)
}

// TestRecompileEmptyDeltaIsNoop pins the fast path: an empty delta touches
// nothing.
func TestRecompileEmptyDeltaIsNoop(t *testing.T) {
	d, err := fuzz.Generate(fuzz.Config{Topology: fuzz.TopoRing, FFs: 8, Ports: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := timing.Compile(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	st, err := g.Recompile(timing.Delta{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Full || st.PinsRefreshed != 0 || st.ArcsPatched != 0 {
		t.Fatalf("empty delta must be a no-op, got %+v", st)
	}
}
