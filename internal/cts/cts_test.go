package cts

import (
	"math"
	"slices"
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/eval"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

func genTimer(t testing.TB, scale float64) (*timing.Timer, *bench.Profile) {
	t.Helper()
	p, err := bench.Superblue("superblue18", scale)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return tm, &p
}

// TestGuideTreeRealizesSchedule: CSS schedule → full re-clustering; the
// realized latencies must track the targets far better than doing nothing,
// and the result must respect the fanout limit and validate.
func TestGuideTreeRealizesSchedule(t *testing.T) {
	tm, _ := genTimer(t, 0.005)
	d := tm.D
	wns0, tns0 := tm.WNSTNS(timing.Late)
	if wns0 >= 0 {
		t.Fatal("no late violations")
	}

	res := mustCoreSchedule(t, tm, core.Options{Mode: timing.Late})
	if len(res.Target) == 0 {
		t.Fatal("no targets scheduled")
	}

	g := GuideTree(tm, res.Target, Options{})
	if g.Moved == 0 {
		t.Fatal("nothing re-clustered")
	}
	if g.ErrAbs >= g.ErrAbsIn {
		t.Errorf("latency error did not improve: %v -> %v", g.ErrAbsIn, g.ErrAbs)
	}
	if g.MaxFanout > d.LCBMaxFanout {
		t.Errorf("fanout %d exceeds limit %d", g.MaxFanout, d.LCBMaxFanout)
	}
	if errs := eval.CheckConstraints(d); len(errs) != 0 {
		t.Fatalf("constraints violated: %v", errs)
	}
	// No predictive latencies remain.
	for _, ff := range d.FFs {
		if tm.ExtraLatency(ff) != 0 {
			t.Fatal("predictive latency left behind")
		}
	}
	// Physical timing improved over the input.
	_, tns1 := tm.WNSTNS(timing.Late)
	if tns1 <= tns0 {
		t.Errorf("late TNS did not improve: %v -> %v", tns0, tns1)
	}
}

// TestGuideTreeEmptyTargets: with no schedule, guidance should roughly
// preserve the status quo (it may still re-cluster for wire, but latency
// error must stay small) and never break constraints.
func TestGuideTreeEmptyTargets(t *testing.T) {
	tm, _ := genTimer(t, 0.004)
	d := tm.D
	g := GuideTree(tm, map[netlist.CellID]float64{}, Options{})
	if g.MaxFanout > d.LCBMaxFanout {
		t.Errorf("fanout %d exceeds limit", g.MaxFanout)
	}
	if errs := eval.CheckConstraints(d); len(errs) != 0 {
		t.Fatalf("constraints violated: %v", errs)
	}
	// Average error per FF stays small (each FF's goal was its own current
	// latency).
	if avg := g.ErrAbs / float64(len(d.FFs)); avg > 40 {
		t.Errorf("average latency error %v ps too large for no-op targets", avg)
	}
}

// TestGuideTreeVsECO compares full re-clustering with the §IV incremental
// reconnection on the same schedule: CTS guidance should realize at least a
// comparable total latency error, since it is unconstrained by the
// once-per-LCB rule.
func TestGuideTreeVsECO(t *testing.T) {
	tmA, _ := genTimer(t, 0.005)
	dB := tmA.D.Clone()
	tmB, err := timing.New(dB, delay.Default())
	if err != nil {
		t.Fatal(err)
	}

	resA := mustCoreSchedule(t, tmA, core.Options{Mode: timing.Late})
	resB := mustCoreSchedule(t, tmB, core.Options{Mode: timing.Late})

	g := GuideTree(tmA, resA.Target, Options{})
	_, tnsCTS := tmA.WNSTNS(timing.Late)

	// ECO path (import cycle prevents calling opt from here; emulate its
	// outcome measure by comparing against the unrealized baseline).
	for ff := range resB.Target {
		tmB.SetExtraLatency(ff, 0)
	}
	tmB.Update()
	_, tnsNone := tmB.WNSTNS(timing.Late)

	if tnsCTS <= tnsNone {
		t.Errorf("CTS guidance no better than dropping the schedule: %v vs %v", tnsCTS, tnsNone)
	}
	t.Logf("CTS: moved=%d errAbs=%.0f (in %.0f), TNS %0.f vs unrealized %0.f",
		g.Moved, g.ErrAbs, g.ErrAbsIn, tnsCTS, tnsNone)
}

// TestGuideTreeDeterministic: GuideTree on clones of one design, with one
// schedule, gives the same clock sink order on every LCB output net, and
// with it the same Result and the same early and late WNS/TNS, bit for bit.
func TestGuideTreeDeterministic(t *testing.T) {
	tm, _ := genTimer(t, 0.005)
	base := tm.D.Clone()
	res := mustCoreSchedule(t, tm, core.Options{Mode: timing.Late})

	type outcome struct {
		moved, maxFanout       int
		errAbs                 uint64
		wnsE, tnsE, wnsL, tnsL uint64
	}
	// run re-clusters a fresh clone and returns each LCB's clock sinks in
	// net order, and the outcome.
	run := func() ([][]netlist.PinID, outcome) {
		d := base.Clone()
		tm, err := timing.New(d, delay.Default())
		if err != nil {
			t.Fatal(err)
		}
		g := GuideTree(tm, res.Target, Options{})
		var sinks [][]netlist.PinID
		for _, l := range d.LCBs {
			var s []netlist.PinID
			if n := d.Pins[d.LCBOut(l)].Net; n != netlist.NoNet {
				s = slices.Clone(d.Nets[n].Sinks)
			}
			sinks = append(sinks, s)
		}
		wE, tE := tm.WNSTNS(timing.Early)
		wL, tL := tm.WNSTNS(timing.Late)
		return sinks, outcome{
			moved: g.Moved, maxFanout: g.MaxFanout, errAbs: math.Float64bits(g.ErrAbs),
			wnsE: math.Float64bits(wE), tnsE: math.Float64bits(tE),
			wnsL: math.Float64bits(wL), tnsL: math.Float64bits(tL),
		}
	}
	wantSinks, want := run()
	if want.moved == 0 {
		t.Fatal("nothing re-clustered; fixture too small")
	}
	for i := 1; i < 8; i++ {
		sinks, got := run()
		for l := range wantSinks {
			if !slices.Equal(sinks[l], wantSinks[l]) {
				t.Fatalf("run %d: LCB %d sink order %v, run 0 %v", i, l, sinks[l], wantSinks[l])
			}
		}
		if got != want {
			t.Fatalf("run %d: outcome %+v, run 0 %+v", i, got, want)
		}
	}
}
