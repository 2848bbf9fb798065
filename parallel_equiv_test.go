package iterskew_test

import (
	"math"
	"testing"

	"iterskew"
	"iterskew/internal/delay"
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
// per-root loop, across generator seeds and both modes.
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

			b0 := tm.Stats
			batch := tm.ExtractEssentialBatch(endpoints, mode, 0, 0, nil)
			bd := tm.Stats
			bd.ExtractedEdges -= b0.ExtractedEdges
			bd.ExtractArcVisits -= b0.ExtractArcVisits
			sameEdges(t, "essential", serial, batch)
			if sd.ExtractedEdges != bd.ExtractedEdges || sd.ExtractArcVisits != bd.ExtractArcVisits {
				t.Fatalf("essential stats: serial %+v vs batch %+v (seed %d mode %v)", sd, bd, seed, mode)
			}

			// Full-cone extractors over every flip-flop.
			ffs := d.FFs
			var from, into []timing.SeqEdge
			for _, ff := range ffs {
				from = tm.ExtractAllFrom(ff, mode, from)
				into = tm.ExtractAllInto(ff, mode, into)
			}
			fromB := tm.ExtractAllFromBatch(ffs, mode, 0, nil)
			intoB := tm.ExtractAllIntoBatch(ffs, mode, 0, nil)
			sameEdges(t, "allFrom", from, fromB)
			sameEdges(t, "allInto", into, intoB)
		}
	}
}
