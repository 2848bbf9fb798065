package flow

import (
	"math"
	"slices"
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/netlist"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// TestFlowRobustnessAcrossSeeds sweeps generator seeds and profiles through
// the full flow for every method, checking the global invariants:
//
//   - no panics, no constraint violations;
//   - early optimization never leaves early timing worse than the input;
//   - late optimization never leaves late TNS worse than the input;
//   - WNS values are never positive, TNS ≤ WNS;
//   - IC-CSS+ and Ours agree on final late WNS (same NSO optimum).
func TestFlowRobustnessAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	profiles := []string{"superblue18", "superblue5", "superblue16"}
	for _, name := range profiles {
		for seed := int64(1); seed <= 3; seed++ {
			p, err := bench.Superblue(name, 0.003)
			if err != nil {
				t.Fatal(err)
			}
			p.Seed = seed
			d, err := bench.Generate(p)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, seed, err)
			}

			var oursWNS, icWNS float64
			for _, m := range []Method{FPM, OursEarly, ICCSSPlus, Ours} {
				rep, err := Run(d, Config{Method: m})
				if err != nil {
					t.Fatalf("%s/%d/%v: %v", name, seed, m, err)
				}
				if len(rep.ConstraintErrs) != 0 {
					t.Errorf("%s/%d/%v: constraints: %v", name, seed, m, rep.ConstraintErrs)
				}
				f := rep.Final
				if f.WNSEarly > 0 || f.WNSLate > 0 {
					t.Errorf("%s/%d/%v: positive WNS", name, seed, m)
				}
				if f.TNSEarly > f.WNSEarly || f.TNSLate > f.WNSLate {
					t.Errorf("%s/%d/%v: TNS better than WNS", name, seed, m)
				}
				if m != FPM && f.TNSEarly < rep.Input.TNSEarly-1e-6 {
					t.Errorf("%s/%d/%v: early TNS worsened %v -> %v",
						name, seed, m, rep.Input.TNSEarly, f.TNSEarly)
				}
				if m == Ours || m == ICCSSPlus {
					if f.TNSLate < rep.Input.TNSLate-1e-6 {
						t.Errorf("%s/%d/%v: late TNS worsened %v -> %v",
							name, seed, m, rep.Input.TNSLate, f.TNSLate)
					}
				}
				switch m {
				case Ours:
					oursWNS = f.WNSLate
				case ICCSSPlus:
					icWNS = f.WNSLate
				}
			}
			if math.Abs(oursWNS-icWNS) > math.Max(1, 0.02*math.Abs(oursWNS)) {
				t.Errorf("%s/%d: IC-CSS+ (%v) and Ours (%v) disagree on late WNS",
					name, seed, icWNS, oursWNS)
			}
		}
	}
}

// TestFlowDeterminism: identical inputs and config produce identical
// reports.
func TestFlowDeterminism(t *testing.T) {
	p, err := bench.Superblue("superblue18", 0.004)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(d, Config{Method: Ours})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, Config{Method: Ours})
	if err != nil {
		t.Fatal(err)
	}
	if a.Final != b.Final {
		t.Errorf("final metrics differ:\n%v\n%v", a.Final, b.Final)
	}
	if a.ExtractedEdges != b.ExtractedEdges || a.Rounds != b.Rounds {
		t.Errorf("run stats differ: %d/%d vs %d/%d",
			a.ExtractedEdges, a.Rounds, b.ExtractedEdges, b.Rounds)
	}
	if len(a.Trajectory) != len(b.Trajectory) {
		t.Fatalf("trajectory lengths differ")
	}
	for i := range a.Trajectory {
		if a.Trajectory[i] != b.Trajectory[i] {
			t.Errorf("trajectory point %d differs", i)
		}
	}
}

// TestFlowOnCleanDesign: a design without violations passes through every
// method unchanged (modulo FPM's no-op).
func TestFlowOnCleanDesign(t *testing.T) {
	p, err := bench.Superblue("superblue18", 0.003)
	if err != nil {
		t.Fatal(err)
	}
	p.LateFrac = 0.0001
	p.HoldFrac = 0.0001
	d, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	// Relax the period so nothing violates.
	d.Period *= 3

	for _, m := range []Method{FPM, OursEarly, Ours, ICCSSPlus} {
		rep, err := Run(d, Config{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if rep.Input.WNSLate < 0 || rep.Input.WNSEarly < 0 {
			t.Skip("fixture still violating")
		}
		if rep.Final.WNSLate < 0 || rep.Final.WNSEarly < 0 {
			t.Errorf("%v: clean design ended violating: %v", m, rep.Final)
		}
		if rep.ExtractedEdges != 0 && m != FPM {
			t.Errorf("%v: extracted %d edges on a clean design", m, rep.ExtractedEdges)
		}
	}
}

// TestFlowStress runs the full flow on a larger instance to shake out
// scaling bugs (quadratic blowups would time out here).
func TestFlowStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	p, err := bench.Superblue("superblue7", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(d, Config{Method: Ours})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ConstraintErrs) != 0 {
		t.Errorf("constraints: %v", rep.ConstraintErrs)
	}
	// The paper itself cannot fully clear superblue7's early violations
	// (Table I); require ≥80% early-TNS recovery instead of perfection.
	if rep.Final.TNSEarly < 0.2*rep.Input.TNSEarly {
		t.Errorf("early TNS recovery below 80%%: %v -> %v", rep.Input.TNSEarly, rep.Final.TNSEarly)
	}
	_ = timing.Late
}

// TestFlowUnclockedFF: a flip-flop whose clock pin is on no net passes input
// validation, so the full Ours flow must run to a report with it, leaving
// the unclocked flip-flop where it is instead of indexing a missing LCB.
func TestFlowUnclockedFF(t *testing.T) {
	p, err := bench.Superblue("superblue18", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	ff := d.FFs[0]
	ck := d.FFClock(ff)
	n := d.Pins[ck].Net
	d.Nets[n].Sinks = slices.DeleteFunc(d.Nets[n].Sinks, func(s netlist.PinID) bool { return s == ck })
	d.Pins[ck].Net = netlist.NoNet
	if err := sched.ValidateInput(d); err != nil {
		t.Fatalf("unclocked flip-flop rejected on input: %v", err)
	}

	rep, err := Run(d, Config{Method: Ours})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ConstraintErrs) != 0 {
		t.Errorf("constraints: %v", rep.ConstraintErrs)
	}
	if f := rep.Final; math.IsNaN(f.TNSLate) || math.IsNaN(f.TNSEarly) {
		t.Errorf("NaN in final metrics: %+v", f)
	}
}
