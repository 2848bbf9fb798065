package core

import (
	"sort"
	"testing"

	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// slackSequence materializes the paper's §II-A objective vector: the sorted
// (ascending) sequence of all sequential-edge slacks of the design, clamped
// at zero, over both analysis modes. The full edge universe is recovered by
// per-source extraction from every launch vertex.
func slackSequence(tm *timing.State) []float64 {
	d := tm.D
	var launches []netlist.CellID
	launches = append(launches, d.FFs...)
	launches = append(launches, d.InPorts...)
	var seq []float64
	var buf []timing.SeqEdge
	for _, u := range launches {
		for _, m := range []timing.Mode{timing.Late, timing.Early} {
			buf = tm.ExtractAllFrom(u, m, buf[:0])
			for _, e := range buf {
				s := tm.EdgeSlack(e)
				if s > 0 {
					s = 0 // "When slack > 0, set slack = 0"
				}
				seq = append(seq, s)
			}
		}
	}
	sort.Float64s(seq)
	return seq
}

// lexCompare returns <0 if a is lexicographically smaller (worse), >0 if
// greater, 0 if equal. Sequences have equal length for the same design.
func lexCompare(a, b []float64) float64 {
	for i := range a {
		if i >= len(b) {
			break
		}
		if a[i] != b[i] {
			return a[i] - b[i]
		}
	}
	return 0
}

// TestScheduleLexicographicObjective verifies the paper's NSO objective on
// random pipelines: the sorted clamped slack sequence never gets
// lexicographically worse under scheduling, and strictly improves when
// violations were present.
func TestScheduleLexicographicObjective(t *testing.T) {
	for seed := 0; seed < 12; seed++ {
		rng := newRand(seed)
		stages := make([]int, 2+rng.Intn(4))
		for i := range stages {
			stages[i] = 1 + rng.Intn(22)
		}
		c := buildChain(t, 170+float64(rng.Intn(250)), stages)
		tm := newTimer(t, c.d)

		before := slackSequence(tm)
		hadViolation := len(before) > 0 && before[0] < -1e-6

		mustSchedule(t, tm, Options{Mode: timing.Late})
		after := slackSequence(tm)

		if len(after) != len(before) {
			t.Fatalf("seed %d: edge universe changed size: %d vs %d", seed, len(before), len(after))
		}
		cmp := lexCompare(after, before)
		if cmp < -1e-6 {
			t.Errorf("seed %d: slack sequence regressed lexicographically (Δ=%v)", seed, cmp)
		}
		if hadViolation && cmp <= 1e-9 && before[0] < after[0]-1e9 {
			t.Errorf("seed %d: violations present but no improvement", seed)
		}
	}
}

// TestCycleHandlingLexicographic: equalizing a ring at its mean is the
// lexicographic optimum for the cycle — no single edge can be better without
// another being worse than the mean.
func TestCycleHandlingLexicographic(t *testing.T) {
	d, _, _ := buildRing(t, 352, 30, 20)
	tm := newTimer(t, d)
	before := slackSequence(tm)
	mustSchedule(t, tm, Options{Mode: timing.Late})
	after := slackSequence(tm)
	if lexCompare(after, before) < -1e-6 {
		t.Error("ring handling regressed the slack sequence")
	}
	// The worst element equals the cycle mean, and the two ring edges are
	// equalized (clamped sequence's two worst entries equal).
	if len(after) >= 2 && (after[0]-after[1]) < -1e-3 {
		t.Errorf("cycle not equalized: %v vs %v", after[0], after[1])
	}
}
