package timing_test

import (
	"math"
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/delay"
	"iterskew/internal/obs"
	"iterskew/internal/timing"
)

// genTimer builds a timer over a generated design big enough to engage the
// batch-extraction pool (hundreds of violated endpoints).
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
		batch := tm.ExtractEssentialBatch(endpoints, m, 0, 8, nil)
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

// TestBatchExtractionEdgeCases pins the degenerate batch paths: empty root
// sets are no-ops that preserve the destination slice, worker counts beyond
// the root count or at/below zero normalize instead of spawning idle or
// broken pools (0 runs serially), and every width agrees with the
// single-worker run.
func TestBatchExtractionEdgeCases(t *testing.T) {
	tm := genTimer(t)
	d := tm.D

	t.Run("empty-roots", func(t *testing.T) {
		prefix := []timing.SeqEdge{{Launch: d.FFs[0], Capture: d.FFs[1], Mode: timing.Late}}
		for _, w := range []int{0, 1, 8} {
			if got := tm.ExtractAllFromBatch(nil, timing.Late, w, append([]timing.SeqEdge(nil), prefix...)); len(got) != 1 || got[0] != prefix[0] {
				t.Errorf("workers=%d: empty launch batch returned %d edges, want the untouched prefix", w, len(got))
			}
			if got := tm.ExtractEssentialBatch(nil, timing.Late, 0, w, nil); len(got) != 0 {
				t.Errorf("workers=%d: empty endpoint batch returned %d edges", w, len(got))
			}
		}
	})

	t.Run("more-workers-than-roots", func(t *testing.T) {
		roots := d.FFs[:3]
		want := tm.ExtractAllFromBatch(roots, timing.Late, 1, nil)
		if got := tm.ExtractAllFromBatch(roots, timing.Late, 64, nil); !sameEdges(got, want) {
			t.Errorf("64 workers over 3 roots: %d edges vs %d serial", len(got), len(want))
		}
	})

	t.Run("worker-normalization", func(t *testing.T) {
		endpoints := tm.ViolatedEndpoints(timing.Late, nil)
		want := tm.ExtractEssentialBatch(endpoints, timing.Late, 0, 1, nil)
		// 0 means serial, negative GOMAXPROCS; both must produce the
		// single-worker result exactly.
		for _, w := range []int{0, -1, -7} {
			if got := tm.ExtractEssentialBatch(endpoints, timing.Late, 0, w, nil); !sameEdges(got, want) {
				t.Errorf("workers=%d: %d edges vs %d single-worker", w, len(got), len(want))
			}
		}
		// The serial loop records one worker span; a pool records one per
		// worker.
		rec := obs.NewRecorder()
		tm.SetRecorder(rec)
		defer tm.SetRecorder(nil)
		for _, c := range []struct{ workers, spans int }{{0, 1}, {2, 2}} {
			before := rec.Hist(obs.SpanExtractWorker).Count
			tm.ExtractEssentialBatch(endpoints, timing.Late, 0, c.workers, nil)
			if got := rec.Hist(obs.SpanExtractWorker).Count - before; got != int64(c.spans) {
				t.Errorf("workers=%d: %d worker spans, want %d", c.workers, got, c.spans)
			}
		}
	})

	t.Run("width-identity", func(t *testing.T) {
		for _, m := range []timing.Mode{timing.Late, timing.Early} {
			want := tm.ExtractAllIntoBatch(d.FFs, m, 1, nil)
			for _, w := range []int{2, 7, 16} {
				if got := tm.ExtractAllIntoBatch(d.FFs, m, w, nil); !sameEdges(got, want) {
					t.Errorf("mode %v workers=%d: %d edges vs %d single-worker", m, w, len(got), len(want))
				}
			}
		}
	})
}

func sameEdges(a, b []timing.SeqEdge) bool {
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

// TestBatchExtractionRace is meaningful under -race: it hammers the batch
// extractors with 8 workers while latencies move between rounds.
func TestBatchExtractionRace(t *testing.T) {
	tm := genTimer(t)
	d := tm.D
	for round := 0; round < 4; round++ {
		for i, ff := range d.FFs {
			if i%3 == round%3 {
				tm.SetExtraLatency(ff, float64((i+round)%31))
			}
		}
		tm.Update()
		for _, m := range []timing.Mode{timing.Late, timing.Early} {
			viol := tm.ViolatedEndpoints(m, nil)
			tm.ExtractEssentialBatch(viol, m, 0, 8, nil)
		}
		tm.ExtractAllFromBatch(d.FFs, timing.Late, 8, nil)
		tm.ExtractAllIntoBatch(d.FFs, timing.Early, 8, nil)
	}
	if wns, _ := tm.WNSTNS(timing.Late); math.IsNaN(wns) {
		t.Error("NaN WNS after batch-extraction rounds")
	}
}
