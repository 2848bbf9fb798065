package timing_test

import (
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/delay"
	"iterskew/internal/timing"
)

// genTimer builds a timer over a generated design with a hundred-odd
// violated endpoints to trace.
func genTimer(t *testing.T) *timing.State {
	t.Helper()
	p, err := bench.Superblue("superblue18", 0.01)
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
	return tm
}

// TestBatchExtractionMatchesSerial pins the in-package contract: the batch
// extractors append exactly the serial loop's edges, in the same order.
func TestBatchExtractionMatchesSerial(t *testing.T) {
	tm := genTimer(t)
	for _, m := range []timing.Mode{timing.Late, timing.Early} {
		endpoints := tm.ViolatedEndpoints(m, nil)
		if len(endpoints) == 0 {
			t.Fatalf("mode %v: generated design has no violations to trace", m)
		}
		var serial []timing.SeqEdge
		for _, e := range endpoints {
			serial = tm.ExtractEssentialAt(e, m, 0, serial)
		}
		batch := tm.ExtractEssentialBatch(endpoints, m, 0, 0, nil)
		if len(serial) != len(batch) {
			t.Fatalf("mode %v: %d serial edges vs %d batch", m, len(serial), len(batch))
		}
		for i := range serial {
			if serial[i] != batch[i] {
				t.Fatalf("mode %v edge %d: %+v vs %+v", m, i, serial[i], batch[i])
			}
		}
	}
}

// TestBatchExtractionEdgeCases pins the degenerate batch path: an empty
// root set is a no-op that preserves the destination slice.
func TestBatchExtractionEdgeCases(t *testing.T) {
	tm := genTimer(t)
	d := tm.D

	t.Run("empty-roots", func(t *testing.T) {
		prefix := []timing.SeqEdge{{Launch: d.FFs[0], Capture: d.FFs[1], Mode: timing.Late}}
		if got := tm.ExtractAllFromBatch(nil, timing.Late, 0, append([]timing.SeqEdge(nil), prefix...)); len(got) != 1 || got[0] != prefix[0] {
			t.Errorf("empty launch batch returned %d edges, want the untouched prefix", len(got))
		}
		if got := tm.ExtractEssentialBatch(nil, timing.Late, 0, 0, nil); len(got) != 0 {
			t.Errorf("empty endpoint batch returned %d edges", len(got))
		}
	})
}
