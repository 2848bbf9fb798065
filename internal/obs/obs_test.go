package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilRecorderNoOps exercises every public method on a nil *Recorder: the
// disabled path must be safe, silent and value-free.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.Add(CtrRounds, 7)
	if got := r.Counter(CtrRounds); got != 0 {
		t.Fatalf("nil Counter = %d, want 0", got)
	}
	r.SetGauge(GaugeGraphVerts, 4)
	if got := r.Gauge(GaugeGraphVerts); got != 0 {
		t.Fatalf("nil Gauge = %d, want 0", got)
	}
	if h := r.Hist(SpanTimerUpdate); h.Count != 0 {
		t.Fatalf("nil Hist count = %d, want 0", h.Count)
	}
	sp := r.StartSpan(SpanRound)
	sp.End()
	r.NamedSpan("x").EndArg2("a", 1, "b", 2)
	r.Instant("marker", "v", 1)
	r.Emit(Event{Type: "round"})
	r.SetPhase("p")
	if got := r.Phase(); got != "" {
		t.Fatalf("nil Phase = %q, want empty", got)
	}
	r.PhaseSpan("p")()
	if ph := r.Phases(); ph != nil {
		t.Fatalf("nil Phases = %v, want nil", ph)
	}
	if s := r.Snapshot(); s != nil {
		t.Fatalf("nil Snapshot = %v, want nil", s)
	}
	if err := r.WriteTrace(io.Discard); err == nil {
		t.Fatal("nil WriteTrace should error")
	}
}

// TestDisabledPathZeroAllocs asserts the two cheap paths instrumented code
// relies on: a nil recorder costs nothing, and a live metrics-only recorder
// (no tracing) keeps the enum-keyed hooks allocation-free.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilRec.Add(CtrTimerPins, 3)
		nilRec.SetGauge(GaugeGraphEdges, 9)
		sp := nilRec.StartSpan(SpanTimerUpdate)
		sp.EndArg2("pins", 3, "levels", 1)
		nilRec.Emit(Event{Type: "round"})
	}); n != 0 {
		t.Fatalf("nil-recorder hooks allocate %v allocs/op, want 0", n)
	}

	rec := NewRecorder() // metrics only: no tracer, no event sink
	if n := testing.AllocsPerRun(1000, func() {
		rec.Add(CtrTimerPins, 3)
		rec.SetGauge(GaugeGraphEdges, 9)
		sp := rec.StartSpan(SpanTimerUpdate)
		sp.EndArg2("pins", 3, "levels", 1)
		rec.Emit(Event{Type: "round"})
	}); n != 0 {
		t.Fatalf("metrics-only hooks allocate %v allocs/op, want 0", n)
	}
}

// TestCountersGauges checks the enum-keyed storage and names.
func TestCountersGauges(t *testing.T) {
	r := NewRecorder()
	r.Add(CtrRounds, 2)
	r.Add(CtrRounds, 3)
	r.Add(CtrExtractEdges, 10)
	if got := r.Counter(CtrRounds); got != 5 {
		t.Fatalf("CtrRounds = %d, want 5", got)
	}
	if got := r.Counter(CtrExtractEdges); got != 10 {
		t.Fatalf("CtrExtractEdges = %d, want 10", got)
	}
	r.SetGauge(GaugeGraphVerts, 8)
	r.SetGauge(GaugeGraphVerts, 4)
	if got := r.Gauge(GaugeGraphVerts); got != 4 {
		t.Fatalf("GaugeGraphVerts = %d, want 4 (last value)", got)
	}
	for c := Counter(0); c < numCounters; c++ {
		if c.String() == "" {
			t.Fatalf("counter %d has no name", c)
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		if g.String() == "" {
			t.Fatalf("gauge %d has no name", g)
		}
	}
	for k := SpanKind(0); k < numSpanKinds; k++ {
		if k.String() == "" {
			t.Fatalf("span kind %d has no name", k)
		}
	}
}

// TestConcurrentCounters hammers one recorder from many goroutines with every
// facility enabled; run under -race this is the package's data-race check,
// and the totals must still be exact.
func TestConcurrentCounters(t *testing.T) {
	r := NewRecorder().EnableTrace().EnableEvents(io.Discard)
	const goroutines, iters = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Add(CtrExtractEdges, 1)
				r.SetGauge(GaugeGraphEdges, int64(i))
				sp := r.StartSpan(SpanExtractBatch)
				sp.EndArg("roots", int64(i))
				r.Emit(Event{Type: "round", Round: i})
			}
		}()
	}
	wg.Wait()
	if got, want := r.Counter(CtrExtractEdges), int64(goroutines*iters); got != want {
		t.Fatalf("CtrExtractEdges = %d, want %d", got, want)
	}
	if got := r.Hist(SpanExtractBatch).Count; got != goroutines*iters {
		t.Fatalf("batch span count = %d, want %d", got, goroutines*iters)
	}
	var sb strings.Builder
	if err := r.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	tf, err := DecodeTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := tf.SpanCount("extract.batch"); got != goroutines*iters {
		t.Fatalf("traced batch spans = %d, want %d", got, goroutines*iters)
	}
}

// TestPhaseSpan verifies the coarse wall/allocation accounting.
func TestPhaseSpan(t *testing.T) {
	r := NewRecorder()
	done := r.PhaseSpan("late-css")
	if got := r.Phase(); got != "late-css" {
		t.Fatalf("Phase = %q, want late-css", got)
	}
	time.Sleep(2 * time.Millisecond)
	done()
	r.PhaseSpan("early-css")()
	r.PhaseSpan("early-css")()

	ph := r.Phases()
	if len(ph) != 2 {
		t.Fatalf("Phases len = %d, want 2", len(ph))
	}
	if ph[0].Name != "early-css" || ph[1].Name != "late-css" {
		t.Fatalf("Phases not sorted by name: %v", ph)
	}
	if ph[0].Count != 2 {
		t.Fatalf("early-css count = %d, want 2", ph[0].Count)
	}
	if ph[1].WallSec < 0.002 {
		t.Fatalf("late-css wall = %v, want >= 2ms", ph[1].WallSec)
	}
}

// TestSnapshot checks the expvar-facing flat map.
func TestSnapshot(t *testing.T) {
	r := NewRecorder()
	r.Add(CtrRounds, 3)
	r.SetGauge(GaugeGraphVerts, 2)
	r.StartSpan(SpanTimerUpdate).End()
	s := r.Snapshot()
	if got := s["counter.rounds"]; got != int64(3) {
		t.Fatalf("counter.rounds = %v, want 3", got)
	}
	if got := s["gauge.graph_verts"]; got != int64(2) {
		t.Fatalf("gauge.graph_verts = %v, want 2", got)
	}
	if _, ok := s["span.timer.update"]; !ok {
		t.Fatal("snapshot missing span.timer.update summary")
	}
	if _, ok := s["span.css.round"]; ok {
		t.Fatal("snapshot should omit empty span summaries")
	}
	// The compiled-graph cache metrics must reach the expvar map: the debug
	// server publishes exactly this snapshot.
	r.Add(CtrGraphCacheHits, 1)
	r.SetGauge(GaugeCacheBytes, 4096)
	s = r.Snapshot()
	if got := s["counter.graph_cache_hits"]; got != int64(1) {
		t.Fatalf("counter.graph_cache_hits = %v, want 1", got)
	}
	if got := s["gauge.cache_bytes"]; got != int64(4096) {
		t.Fatalf("gauge.cache_bytes = %v, want 4096", got)
	}
}

// BenchmarkDisabledHooks is the regression guard for the acceptance
// criterion: the instrumentation sites cost 0 allocs/op with no recorder.
func BenchmarkDisabledHooks(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(CtrTimerPins, 1)
		sp := r.StartSpan(SpanTimerUpdate)
		sp.EndArg2("pins", 1, "levels", 1)
	}
}

// BenchmarkMetricsOnlyHooks measures the live-counters path (no tracing).
func BenchmarkMetricsOnlyHooks(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(CtrTimerPins, 1)
		sp := r.StartSpan(SpanTimerUpdate)
		sp.EndArg2("pins", 1, "levels", 1)
	}
}
