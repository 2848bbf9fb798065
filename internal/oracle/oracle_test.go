package oracle

import (
	"math"
	"math/rand"
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

func benchTimer(t *testing.T, name string) *timing.State {
	t.Helper()
	var d *netlist.Design
	var err error
	switch name {
	case "ring":
		d, err = bench.RingPipeline(6, 3, bench.StructOptions{SlowStages: []int{1}, Seed: 7})
	case "systolic":
		d, err = bench.Systolic(4, 4, bench.StructOptions{Seed: 11})
	default:
		p, perr := bench.Superblue(name, 0.004)
		if perr != nil {
			t.Fatal(perr)
		}
		d, err = bench.Generate(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// TestExtractAgreesWithTimer cross-validates the oracle's from-scratch STA
// against the timer on generated designs: every endpoint slack must match in
// both modes, at zero skew and again after random extra latencies flow
// through the timer's incremental update path.
func TestExtractAgreesWithTimer(t *testing.T) {
	for _, name := range []string{"superblue18", "ring", "systolic"} {
		t.Run(name, func(t *testing.T) {
			tm := benchTimer(t, name)
			g, err := Extract(tm.D, tm.M)
			if err != nil {
				t.Fatal(err)
			}
			compare := func(extra map[netlist.CellID]float64) {
				t.Helper()
				oLate := g.EndpointSlacks(true, extra)
				oEarly := g.EndpointSlacks(false, extra)
				for i, ep := range tm.Endpoints() {
					id := timing.EndpointID(i)
					if tl, ol := tm.LateSlack(id), oLate[ep.Cell]; !slackEq(tl, ol, 1e-6) {
						t.Fatalf("late slack mismatch at cell %d: timer %v oracle %v", ep.Cell, tl, ol)
					}
					if te, oe := tm.EarlySlack(id), oEarly[ep.Cell]; !slackEq(te, oe, 1e-6) {
						t.Fatalf("early slack mismatch at cell %d: timer %v oracle %v", ep.Cell, te, oe)
					}
				}
			}
			compare(nil)

			rng := rand.New(rand.NewSource(42))
			extra := make(map[netlist.CellID]float64)
			for _, ff := range tm.D.FFs {
				if rng.Float64() < 0.4 {
					l := rng.Float64() * 80
					extra[ff] = l
					tm.SetExtraLatency(ff, l)
				}
			}
			tm.Update()
			compare(extra)
		})
	}
}

// twoFFGraph fabricates a Graph over a real two-flip-flop design with
// hand-picked edge delays, for exact LP expectations. Slack targets are
// converted to delays through the slack formulas (latencies all zero).
func twoFFGraph(t *testing.T, period, wLate1, wLate2 float64, wEarly []float64) (*Graph, netlist.CellID, netlist.CellID) {
	t.Helper()
	lib := netlist.StdLib()
	d := netlist.NewDesign("lp", period)
	a := d.AddCell("ffa", lib.Get("DFF"), geom.Pt(0, 0))
	b := d.AddCell("ffb", lib.Get("DFF"), geom.Pt(10, 0))
	setup := d.Cells[a].Type.Setup
	hold := d.Cells[a].Type.Hold
	g := &Graph{
		D: d, M: delay.Default(),
		BaseLat: map[netlist.CellID]float64{},
		dEarly:  1, dLate: 1,
	}
	// late slack = T − setup − delay  ⇒  delay = T − setup − w
	g.Late = []Edge{
		{Launch: a, Capture: b, Delay: period - setup - wLate1},
		{Launch: b, Capture: a, Delay: period - setup - wLate2},
	}
	// early slack = delay − hold  ⇒  delay = w + hold
	for i, w := range wEarly {
		e := Edge{Launch: a, Capture: b, Delay: w + hold}
		if i%2 == 1 {
			e.Launch, e.Capture = b, a
		}
		g.Early = append(g.Early, e)
	}
	return g, a, b
}

// TestSolveTwoCycle checks the solver against the closed-form optimum of a
// two-vertex cycle: the mean edge weight.
func TestSolveTwoCycle(t *testing.T) {
	g, _, b := twoFFGraph(t, 1000, -60, 40, nil)
	sol := g.Solve(nil, SolveOptions{Late: true})
	want := (-60.0 + 40.0) / 2
	if math.Abs(sol.WorstSlack-want) > 1e-6 || sol.Capped {
		t.Fatalf("two-cycle optimum: got %v (capped=%v), want %v", sol.WorstSlack, sol.Capped, want)
	}
	// The witness must achieve the optimum when re-evaluated on the graph.
	if got := g.WorstSlack(true, sol.Latency); math.Abs(got-want) > 1e-6 {
		t.Fatalf("witness achieves %v, want %v", got, want)
	}
	if len(sol.Binding) == 0 {
		t.Fatal("expected a binding-cycle certificate at the optimum")
	}

	// With every latency pinned at zero the optimum is the worst raw weight.
	pinned := g.Solve(nil, SolveOptions{Late: true, LatencyUB: func(netlist.CellID) float64 { return 0 }})
	if math.Abs(pinned.WorstSlack-(-60)) > 1e-6 {
		t.Fatalf("pinned optimum: got %v, want -60", pinned.WorstSlack)
	}
	if l := pinned.Latency[b]; l > 1e-9 {
		t.Fatalf("pinned witness moved a latency: %v", l)
	}
}

// TestSolveSafeOpposite checks that the hold-safety floors cut the feasible
// region as derived by hand: a hold check with 2 ps of headroom caps the
// capture raise at 2, so the setup optimum drops from −3 to −8.
func TestSolveSafeOpposite(t *testing.T) {
	g, _, _ := twoFFGraph(t, 1000, -10, 4, []float64{2})
	free := g.Solve(nil, SolveOptions{Late: true})
	if want := (-10.0 + 4.0) / 2; math.Abs(free.WorstSlack-want) > 1e-6 {
		t.Fatalf("free optimum: got %v, want %v", free.WorstSlack, want)
	}
	safe := g.Solve(nil, SolveOptions{Late: true, SafeOpposite: true})
	if math.Abs(safe.WorstSlack-(-8)) > 1e-6 {
		t.Fatalf("safe optimum: got %v, want -8", safe.WorstSlack)
	}
	// The witness must respect the floor it was constrained by.
	for _, e := range g.Early {
		if s := g.EdgeSlack(e, false, safe.Latency); s < -1e-6 {
			t.Fatalf("safe witness violates a hold floor: %v", s)
		}
	}
}

// TestSolveUnboundedIsCapped: a single late edge with a raisable capture has
// no finite optimum; the solver must report the cap instead of looping.
func TestSolveUnboundedIsCapped(t *testing.T) {
	g, _, _ := twoFFGraph(t, 1000, -60, 40, nil)
	g.Late = g.Late[:1] // drop the back edge: no cycle, optimum unbounded
	sol := g.Solve(nil, SolveOptions{Late: true})
	if !sol.Capped {
		t.Fatalf("expected capped solution, got %v", sol.WorstSlack)
	}
	if sol.WorstSlack < 940 {
		t.Fatalf("cap should sit one period above zero, got %v", sol.WorstSlack)
	}
}

// TestCheckerOnCoreSchedule runs the full bridge on generated designs: the
// iterative scheduler's result must pass every invariant, and its worst
// slack must be optimal or explained.
func TestCheckerOnCoreSchedule(t *testing.T) {
	for _, name := range []string{"superblue18", "ring"} {
		t.Run(name, func(t *testing.T) {
			tm := benchTimer(t, name)
			chk, err := NewChecker(tm, CheckOptions{Mode: timing.Late, GapCheck: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Schedule(tm, core.Options{Mode: timing.Late, StallRounds: -1})
			if err != nil {
				t.Fatal(err)
			}
			rep := chk.Check(tm, res.Target, res.CycleFixes)
			for _, f := range rep.Findings {
				t.Errorf("finding: %s", f)
			}
			if !rep.GapExplained {
				t.Errorf("gap %v (wns %v, free %v, safe %v) unexplained; notes: %v",
					rep.Gap, rep.WNS, rep.OptFree, rep.OptSafe, rep.Notes)
			}
		})
	}
}

// TestCheckerFlagsCorruptedSchedule proves the checker actually rejects bad
// schedules: perturbing one latency behind the scheduler's back must produce
// findings (the timer-vs-oracle diff and/or the target diff).
func TestCheckerFlagsCorruptedSchedule(t *testing.T) {
	tm := benchTimer(t, "superblue18")
	chk, err := NewChecker(tm, CheckOptions{Mode: timing.Late})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Schedule(tm, core.Options{Mode: timing.Late})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: shift one flip-flop's latency without telling the timer's
	// clients (the reported target no longer matches).
	ff := tm.D.FFs[len(tm.D.FFs)/2]
	tm.SetExtraLatency(ff, tm.ExtraLatency(ff)+13)
	tm.Update()
	rep := chk.Check(tm, res.Target, res.CycleFixes)
	if rep.OK {
		t.Fatal("checker accepted a corrupted schedule")
	}
}
