package fuzz

import (
	"errors"
	"math"
	"os"
	"strconv"
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/fpm"
	"iterskew/internal/geom"
	"iterskew/internal/iccss"
	"iterskew/internal/netlist"
	"iterskew/internal/oracle"
	"iterskew/internal/timing"
)

func newTimer(t testing.TB, d *netlist.Design) *timing.State {
	t.Helper()
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func generateFor(t testing.TB, seed int64) *netlist.Design {
	t.Helper()
	cfg := FromSeed(seed)
	d, err := Generate(cfg)
	if err != nil {
		t.Fatalf("seed %d (%+v): %v", seed, cfg, err)
	}
	return d
}

// seedOutcome summarizes the late-mode gap result of one seed for
// TestOracleAgreement's tally.
type seedOutcome struct {
	optimal   bool // worst setup slack within tolerance of the LP optimum
	explained bool // gap fully explained by the checker
}

// checkSchedulers runs every scheduling algorithm over one fuzzed design and
// validates each result with the oracle invariant checker. Violations are
// reported through t.Errorf with the seed, so any failing seed reproduces
// with a one-line test filter.
func checkSchedulers(t *testing.T, seed int64) seedOutcome {
	t.Helper()
	d := generateFor(t, seed)
	var out seedOutcome

	// The iterative scheduler, both modes, against the LP optimum.
	for _, mode := range []timing.Mode{timing.Late, timing.Early} {
		tm := newTimer(t, d)
		chk, err := oracle.NewChecker(tm, oracle.CheckOptions{Mode: mode, GapCheck: true})
		if err != nil {
			t.Fatalf("seed %d core/%v checker: %v", seed, mode, err)
		}
		res, err := core.Schedule(tm, core.Options{Mode: mode, StallRounds: -1})
		if err != nil {
			t.Fatalf("seed %d core/%v: %v", seed, mode, err)
		}
		rep := chk.Check(tm, res.Target, res.CycleFixes)
		for _, f := range rep.Findings {
			t.Errorf("seed %d core/%v: %s", seed, mode, f)
		}
		if mode == timing.Late {
			out.optimal = rep.Gap <= 2e-6
			out.explained = rep.GapExplained
		}
	}

	// IC-CSS+: invariants only (it aims for the same fixpoint but makes no
	// per-round optimality promise we can gap-check).
	tm := newTimer(t, d)
	chk, err := oracle.NewChecker(tm, oracle.CheckOptions{Mode: timing.Late})
	if err != nil {
		t.Fatalf("seed %d iccss checker: %v", seed, err)
	}
	ires, err := iccss.Schedule(tm, iccss.Options{Mode: timing.Late})
	if err != nil {
		t.Fatalf("seed %d iccss: %v", seed, err)
	}
	for _, f := range chk.Check(tm, ires.Target, ires.CycleFixes).Findings {
		t.Errorf("seed %d iccss: %s", seed, f)
	}

	// FPM: single-shot hold-mode predictive pass, invariants only.
	tm = newTimer(t, d)
	chk, err = oracle.NewChecker(tm, oracle.CheckOptions{Mode: timing.Early})
	if err != nil {
		t.Fatalf("seed %d fpm checker: %v", seed, err)
	}
	fres, err := fpm.Schedule(tm, fpm.Options{})
	if err != nil {
		t.Fatalf("seed %d fpm: %v", seed, err)
	}
	for _, f := range chk.Check(tm, fres.Target, nil).Findings {
		t.Errorf("seed %d fpm: %s", seed, f)
	}
	return out
}

// FuzzSchedule drives every scheduler over adversarial netlists derived from
// the fuzzed seed and fails on any invariant violation, panic, or
// unexplained optimality gap.
func FuzzSchedule(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSchedulers(t, seed)
	})
}

// edgeKey identifies a sequential edge by its vertex pair.
type edgeKey struct{ l, c netlist.CellID }

// checkExtraction cross-validates every extraction primitive on one fuzzed
// design against the oracle's full graph: per-source and per-capture
// extraction must reproduce the full graph exactly, batch extraction must be
// byte-identical to serial, essential extraction must return exactly the
// below-margin edges, and the both-mode per-capture walk must return
// ExtractAllInto's launchers in each mode with bit-identical delays.
func checkExtraction(t *testing.T, seed int64) {
	t.Helper()
	d := generateFor(t, seed)
	tm := newTimer(t, d)
	g, err := oracle.Extract(d, tm.M)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	full := map[timing.Mode]map[edgeKey]float64{timing.Late: {}, timing.Early: {}}
	for _, e := range g.Late {
		full[timing.Late][edgeKey{e.Launch, e.Capture}] = e.Delay
	}
	for _, e := range g.Early {
		full[timing.Early][edgeKey{e.Launch, e.Capture}] = e.Delay
	}

	launches := append(append([]netlist.CellID{}, d.FFs...), d.InPorts...)
	captures := append(append([]netlist.CellID{}, d.FFs...), d.OutPorts...)
	var endpoints []timing.EndpointID
	for i := range tm.Endpoints() {
		endpoints = append(endpoints, timing.EndpointID(i))
	}
	const margin = 25.0

	for _, mode := range []timing.Mode{timing.Late, timing.Early} {
		want := full[mode]
		late := mode == timing.Late

		var serial []timing.SeqEdge
		matched := 0
		for _, l := range launches {
			for _, e := range tm.ExtractAllFrom(l, mode, nil) {
				serial = append(serial, e)
				od, ok := want[edgeKey{e.Launch, e.Capture}]
				if !ok {
					t.Errorf("seed %d %v: timer edge %d→%d not in the full graph", seed, mode, e.Launch, e.Capture)
					continue
				}
				if math.Abs(od-e.Delay) > 1e-6 {
					t.Errorf("seed %d %v: edge %d→%d delay %v, oracle %v", seed, mode, e.Launch, e.Capture, e.Delay, od)
				}
				matched++
			}
		}
		if matched != len(want) {
			t.Errorf("seed %d %v: per-source extraction found %d edges, oracle graph has %d", seed, mode, matched, len(want))
		}

		for _, w := range []int{1, 3, 8} {
			batch := tm.ExtractAllFromBatch(launches, mode, w, nil)
			if !equalEdges(batch, serial) {
				t.Errorf("seed %d %v: batch extraction (workers=%d) differs from serial", seed, mode, w)
			}
		}

		into := 0
		for _, cc := range captures {
			for _, e := range tm.ExtractAllInto(cc, mode, nil) {
				od, ok := want[edgeKey{e.Launch, e.Capture}]
				if !ok || math.Abs(od-e.Delay) > 1e-6 {
					t.Errorf("seed %d %v: backward edge %d→%d delay %v, oracle %v (known=%v)",
						seed, mode, e.Launch, e.Capture, e.Delay, od, ok)
					continue
				}
				into++
			}
		}
		if into != len(want) {
			t.Errorf("seed %d %v: per-capture extraction found %d edges, oracle graph has %d", seed, mode, into, len(want))
		}

		// Essential extraction: exactly the edges with slack below margin
		// (modulo a small indifference band around the cut).
		var essSerial []timing.SeqEdge
		for _, id := range endpoints {
			capCell := tm.Endpoints()[id].Cell
			got := map[netlist.CellID]bool{}
			edges := tm.ExtractEssentialAt(id, mode, margin, nil)
			essSerial = append(essSerial, edges...)
			for _, e := range edges {
				got[e.Launch] = true
				od, ok := want[edgeKey{e.Launch, capCell}]
				if !ok || math.Abs(od-e.Delay) > 1e-6 {
					t.Errorf("seed %d %v: essential edge %d→%d delay %v, oracle %v (known=%v)",
						seed, mode, e.Launch, capCell, e.Delay, od, ok)
					continue
				}
				if s := g.SlackOf(e.Launch, capCell, od, late, nil); s >= margin+1e-3 {
					t.Errorf("seed %d %v: essential edge %d→%d has slack %v ≥ margin %v", seed, mode, e.Launch, capCell, s, margin)
				}
			}
			for k, od := range want {
				if k.c != capCell || got[k.l] {
					continue
				}
				if s := g.SlackOf(k.l, capCell, od, late, nil); s < margin-1e-3 {
					t.Errorf("seed %d %v: essential extraction missed %d→%d with slack %v < margin %v", seed, mode, k.l, capCell, s, margin)
				}
			}
		}
		for _, w := range []int{1, 3, 8} {
			batch := tm.ExtractEssentialBatch(endpoints, mode, margin, w, nil)
			if !equalEdges(batch, essSerial) {
				t.Errorf("seed %d %v: essential batch (workers=%d) differs from serial", seed, mode, w)
			}
		}
	}

	for _, cc := range captures {
		var delay [2]map[netlist.CellID]float64
		for _, mode := range []timing.Mode{timing.Late, timing.Early} {
			delay[mode] = map[netlist.CellID]float64{}
			for _, e := range tm.ExtractAllInto(cc, mode, nil) {
				delay[mode][e.Launch] = e.Delay
			}
		}
		edges0 := tm.Stats.ExtractedEdges
		both := tm.ExtractAllIntoBoth(cc, nil)
		if tm.Stats.ExtractedEdges != edges0 {
			t.Errorf("seed %d: the both-mode walk into %d counted extracted edges", seed, cc)
		}
		if len(both) != len(delay[timing.Late]) || len(both) != len(delay[timing.Early]) {
			t.Errorf("seed %d: both-mode walk into %d found %d launchers, ExtractAllInto %d late and %d early",
				seed, cc, len(both), len(delay[timing.Late]), len(delay[timing.Early]))
		}
		for _, l := range both {
			dl, okL := delay[timing.Late][l.Launch]
			de, okE := delay[timing.Early][l.Launch]
			if !okL || !okE || math.Float64bits(dl) != math.Float64bits(l.Late) || math.Float64bits(de) != math.Float64bits(l.Early) {
				t.Errorf("seed %d: both-mode %d→%d delays (%v, %v), ExtractAllInto (%v, %v) (found %v, %v)",
					seed, l.Launch, cc, l.Late, l.Early, dl, de, okL, okE)
			}
		}
	}
}

func equalEdges(a, b []timing.SeqEdge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzExtract checks the timer's dynamic extraction primitives against the
// oracle's static full-graph extraction on fuzzed netlists.
func FuzzExtract(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkExtraction(t, seed)
	})
}

// TestOracleAgreement is the differential acceptance sweep: many seeded
// netlists, every scheduler checked, and the iterative scheduler's worst
// setup slack compared against the LP optimum. ORACLE_FUZZ_N scales the seed
// count (the oracle-check make target uses 1000).
func TestOracleAgreement(t *testing.T) {
	n := 120
	if s := os.Getenv("ORACLE_FUZZ_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad ORACLE_FUZZ_N %q: %v", s, err)
		}
		n = v
	}
	if testing.Short() {
		n = 25
	}
	optimal, explained := 0, 0
	for seed := 0; seed < n; seed++ {
		out := checkSchedulers(t, int64(seed))
		switch {
		case out.optimal:
			optimal++
		case out.explained:
			explained++
		}
		if t.Failed() {
			t.Fatalf("stopping after findings at seed %d (of %d)", seed, n)
		}
	}
	t.Logf("oracle agreement over seeds 0..%d: %d optimal, %d gap-explained, 0 unexplained", n-1, optimal, explained)
}

// degenerateDesign builds the clock scaffolding for hand-made degenerate
// netlists.
func degenerateDesign(name string, period float64, ffs int) (*netlist.Design, []netlist.CellID) {
	lib := netlist.StdLib()
	d := netlist.NewDesign(name, period)
	d.Die = geom.RectOf(geom.Pt(0, 0), geom.Pt(1000, 1000))
	d.LCBMaxFanout = 50
	root := d.AddCell("clkroot", lib.Get("CLKROOT"), d.Die.Center())
	lcb := d.AddCell("lcb0", lib.Get("LCB"), geom.Pt(500, 400))
	cn := d.Connect("clk_root", d.OutPin(root), d.LCBIn(lcb))
	d.Nets[cn].IsClock = true
	cl := d.Connect("clk_l0", d.LCBOut(lcb))
	d.Nets[cl].IsClock = true
	var cells []netlist.CellID
	for i := 0; i < ffs; i++ {
		ff := d.AddCell("dff", lib.Get("DFF"), geom.Pt(400+40*float64(i), 500))
		d.AddSink(cl, d.FFClock(ff))
		cells = append(cells, ff)
	}
	return d, cells
}

// TestDegenerateInputsReturnTypedErrors locks in the no-panic contract:
// zero-flip-flop designs, non-positive periods and direct Q→D self-loops
// must surface as *core.DegenerateInputError from both iterative schedulers.
func TestDegenerateInputsReturnTypedErrors(t *testing.T) {
	lib := netlist.StdLib()
	cases := []struct {
		name   string
		design func() *netlist.Design
	}{
		{"zero-ffs", func() *netlist.Design {
			d, _ := degenerateDesign("noffs", 500, 0)
			in := d.AddCell("in0", lib.Get("PORTIN"), geom.Pt(0, 0))
			out := d.AddCell("out0", lib.Get("PORTOUT"), geom.Pt(1000, 0))
			d.Connect("n", d.OutPin(in), d.Cells[out].Pins[0])
			return d
		}},
		{"zero-period", func() *netlist.Design {
			d, ffs := degenerateDesign("p0", 0, 2)
			inv := d.AddCell("g", lib.Get("INV"), geom.Pt(450, 520))
			d.Connect("n1", d.FFQ(ffs[0]), d.Cells[inv].Pins[0])
			d.Connect("n2", d.OutPin(inv), d.FFData(ffs[1]))
			return d
		}},
		{"negative-period", func() *netlist.Design {
			d, ffs := degenerateDesign("pneg", -10, 1)
			_ = ffs
			return d
		}},
		{"direct-self-loop", func() *netlist.Design {
			d, ffs := degenerateDesign("selfloop", 500, 1)
			d.Connect("loop", d.FFQ(ffs[0]), d.FFData(ffs[0]))
			return d
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.design()
			if err := d.Validate(); err != nil {
				t.Fatalf("degenerate design must still be structurally valid: %v", err)
			}
			tm := newTimer(t, d)
			if _, err := core.Schedule(tm, core.Options{}); !isDegenerate(err) {
				t.Errorf("core.Schedule: want *core.DegenerateInputError, got %v", err)
			}
			if _, err := iccss.Schedule(tm, iccss.Options{}); !isDegenerate(err) {
				t.Errorf("iccss.Schedule: want *core.DegenerateInputError, got %v", err)
			}
			for _, ff := range d.FFs {
				if l := tm.ExtraLatency(ff); l != 0 {
					t.Errorf("rejected input left latency %v on flip-flop %d", l, ff)
				}
			}
		})
	}
}

func isDegenerate(err error) bool {
	var derr *core.DegenerateInputError
	return errors.As(err, &derr)
}

// TestGenerateAllTopologies pins the generator itself: every topology at a
// few sizes must produce a valid, timeable design with flip-flops.
func TestGenerateAllTopologies(t *testing.T) {
	for topo := Topology(0); topo < numTopologies; topo++ {
		for _, ffs := range []int{1, 7, 33} {
			d, err := Generate(Config{Topology: topo, FFs: ffs, Ports: 1, Seed: int64(ffs)})
			if err != nil {
				t.Fatalf("%v/%d: %v", topo, ffs, err)
			}
			if len(d.FFs) == 0 {
				t.Fatalf("%v/%d: no flip-flops", topo, ffs)
			}
			if d.Period <= 0 {
				t.Fatalf("%v/%d: period %v", topo, ffs, d.Period)
			}
			newTimer(t, d)
		}
	}
}
