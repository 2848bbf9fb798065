package iterskew_test

import (
	"math"
	"testing"

	"iterskew"
	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/iccss"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// equivSeeds are the generator-seed offsets the byte-identity suites sweep.
var equivSeeds = []int64{0, 101, 202, 303, 404}

// equivDesign generates the superblue18 profile at the given scale with a
// perturbed generator seed.
func equivDesign(t *testing.T, scale float64, seed int64) *netlist.Design {
	t.Helper()
	p, err := iterskew.SuperblueProfile("superblue18", scale)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed += seed
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func sameEdges(t *testing.T, label string, a, b []timing.SeqEdge) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d edges serial vs %d batch", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Launch != b[i].Launch || a[i].Capture != b[i].Capture ||
			a[i].Mode != b[i].Mode ||
			math.Float64bits(a[i].Delay) != math.Float64bits(b[i].Delay) {
			t.Fatalf("%s: edge %d differs: serial %+v vs batch %+v", label, i, a[i], b[i])
		}
	}
}

// TestBatchExtractionEquivalence verifies that every batch extractor produces
// byte-identical edges — and identical instrumentation counters — to its
// serial per-root loop, across generator seeds, both modes, and several
// worker widths.
func TestBatchExtractionEquivalence(t *testing.T) {
	for _, seed := range equivSeeds {
		d := equivDesign(t, 0.01, seed)
		tm, err := timing.New(d, delay.Default())
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []timing.Mode{timing.Late, timing.Early} {
			endpoints := tm.ViolatedEndpoints(mode, nil)

			var serial []timing.SeqEdge
			s0 := tm.Stats
			for _, e := range endpoints {
				serial = tm.ExtractEssentialAt(e, mode, 0, serial)
			}
			sd := tm.Stats
			sd.ExtractedEdges -= s0.ExtractedEdges
			sd.ExtractArcVisits -= s0.ExtractArcVisits

			for _, workers := range []int{2, 4, 8} {
				b0 := tm.Stats
				batch := tm.ExtractEssentialBatch(endpoints, mode, 0, workers, nil)
				bd := tm.Stats
				bd.ExtractedEdges -= b0.ExtractedEdges
				bd.ExtractArcVisits -= b0.ExtractArcVisits
				sameEdges(t, "essential", serial, batch)
				if sd.ExtractedEdges != bd.ExtractedEdges || sd.ExtractArcVisits != bd.ExtractArcVisits {
					t.Fatalf("essential stats: serial %+v vs batch %+v (seed %d mode %v workers %d)",
						sd, bd, seed, mode, workers)
				}
			}

			// Full-cone extractors over every flip-flop.
			ffs := d.FFs
			var from, into []timing.SeqEdge
			for _, ff := range ffs {
				from = tm.ExtractAllFrom(ff, mode, from)
				into = tm.ExtractAllInto(ff, mode, into)
			}
			fromB := tm.ExtractAllFromBatch(ffs, mode, 8, nil)
			intoB := tm.ExtractAllIntoBatch(ffs, mode, 8, nil)
			sameEdges(t, "allFrom", from, fromB)
			sameEdges(t, "allInto", into, intoB)
		}
	}
}

// TestScheduleWorkersEquivalence verifies the full schedulers are oblivious
// to the batch-extraction width: core.Schedule and iccss.Schedule at
// Workers=8 must reproduce the serial schedule exactly (targets, rounds,
// edge counts).
func TestScheduleWorkersEquivalence(t *testing.T) {
	sameTargets := func(label string, a, b map[netlist.CellID]float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d targets serial vs %d parallel", label, len(a), len(b))
		}
		for c, v := range a {
			if w, ok := b[c]; !ok || math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("%s: cell %d target %v vs %v", label, c, v, w)
			}
		}
	}
	for _, seed := range equivSeeds[:2] {
		for _, mode := range []timing.Mode{timing.Late, timing.Early} {
			d := equivDesign(t, 0.01, seed)

			run := func(workers int) *core.Result {
				tm, err := timing.New(d.Clone(), delay.Default())
				if err != nil {
					t.Fatal(err)
				}
				return mustCoreSchedule(t, tm, core.Options{Mode: mode, Workers: workers})
			}
			r1, r8 := run(1), run(8)
			if r1.Rounds != r8.Rounds || r1.Cycles != r8.Cycles || r1.EdgesExtracted != r8.EdgesExtracted {
				t.Fatalf("core seed %d %v: rounds/cycles/edges %d/%d/%d vs %d/%d/%d",
					seed, mode, r1.Rounds, r1.Cycles, r1.EdgesExtracted, r8.Rounds, r8.Cycles, r8.EdgesExtracted)
			}
			sameTargets("core", r1.Target, r8.Target)

			runIC := func(workers int) *iccss.Result {
				tm, err := timing.New(d.Clone(), delay.Default())
				if err != nil {
					t.Fatal(err)
				}
				return mustICCSSSchedule(t, tm, iccss.Options{Mode: mode, Workers: workers})
			}
			i1, i8 := runIC(1), runIC(8)
			if i1.Rounds != i8.Rounds || i1.EdgesExtracted != i8.EdgesExtracted || i1.CriticalVerts != i8.CriticalVerts {
				t.Fatalf("iccss seed %d %v: rounds/edges/crit %d/%d/%d vs %d/%d/%d",
					seed, mode, i1.Rounds, i1.EdgesExtracted, i1.CriticalVerts, i8.Rounds, i8.EdgesExtracted, i8.CriticalVerts)
			}
			sameTargets("iccss", i1.Target, i8.Target)
		}
	}
}
