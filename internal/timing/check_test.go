package timing_test

import (
	"slices"
	"testing"

	"iterskew/internal/timing"
)

// TestSetCheckAbortsAndDrains pins the cooperative-stop contract of the
// amortized check hook: an Update cut short at a level-bucket boundary
// leaves a resumable worklist, and a later Update with the hook removed
// drains it to exactly the state an uninterrupted run reaches.
func TestSetCheckAbortsAndDrains(t *testing.T) {
	ref := genTimer(t)
	tm := genTimer(t)
	d := ref.D

	bump := func(x *timing.State) {
		for i := 0; i < len(d.FFs); i += 3 {
			x.AddExtraLatency(d.FFs[i], 50)
		}
	}
	bump(ref)
	refPins := ref.Update()
	if refPins == 0 {
		t.Fatal("reference update propagated nothing; fixture too small")
	}

	bump(tm)
	calls := 0
	tm.SetCheck(func() bool {
		calls++
		return calls > 2 // abort after two level buckets
	})
	abortedPins := tm.Update()
	if calls <= 2 {
		t.Fatalf("check hook probed %d times; abort never engaged", calls)
	}
	if abortedPins >= refPins {
		t.Fatalf("aborted update propagated %d pins, full run %d — abort had no effect", abortedPins, refPins)
	}

	tm.SetCheck(nil)
	drained := tm.Update()
	if drained == 0 {
		t.Fatal("drain update propagated nothing despite the earlier abort")
	}
	if n := tm.Update(); n != 0 {
		t.Fatalf("update after drain repropagated %d pins, want 0", n)
	}

	for e := range ref.Endpoints() {
		id := timing.EndpointID(e)
		for _, m := range []timing.Mode{timing.Early, timing.Late} {
			if got, want := tm.Slack(id, m), ref.Slack(id, m); got != want {
				t.Fatalf("endpoint %d mode %v: drained slack %v != reference %v", e, m, got, want)
			}
		}
	}
}

// TestSetCheckStopsBatchExtraction: the batch extractor probes the hook
// before each root. An always-stop hook is probed once and traces no root;
// a hook that stops after k probes yields exactly the first k roots' edges;
// removing the hook restores the full result.
func TestSetCheckStopsBatchExtraction(t *testing.T) {
	tm := genTimer(t)
	endpoints := tm.ViolatedEndpoints(timing.Late, nil)
	if len(endpoints) < 4 {
		t.Fatalf("only %d violated endpoints; fixture too small", len(endpoints))
	}
	full := tm.ExtractEssentialBatch(endpoints, timing.Late, 0, 0, nil)

	probes := 0
	tm.SetCheck(func() bool { probes++; return true })
	if aborted := tm.ExtractEssentialBatch(endpoints, timing.Late, 0, 0, nil); len(aborted) != 0 || probes != 1 {
		t.Fatalf("always-stop hook: %d probes, %d of %d edges traced; want 1 probe and none", probes, len(aborted), len(full))
	}

	const k = 3
	var first []timing.SeqEdge
	for _, e := range endpoints[:k] {
		first = tm.ExtractEssentialAt(e, timing.Late, 0, first)
	}
	probes = 0
	tm.SetCheck(func() bool { probes++; return probes > k })
	if got := tm.ExtractEssentialBatch(endpoints, timing.Late, 0, 0, nil); !slices.Equal(got, first) || probes != k+1 {
		t.Fatalf("stop after %d probes: %d probes, %d edges; want %d probes and the first %d roots' %d edges",
			k, probes, len(got), k+1, k, len(first))
	}

	tm.SetCheck(nil)
	again := tm.ExtractEssentialBatch(endpoints, timing.Late, 0, 0, nil)
	if len(again) != len(full) {
		t.Fatalf("after removing the hook: %d edges, want %d", len(again), len(full))
	}
	for i := range full {
		if again[i] != full[i] {
			t.Fatalf("edge %d differs after hook removal: %+v vs %+v", i, again[i], full[i])
		}
	}
}
