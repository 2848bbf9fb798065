package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestTraceRoundTrip records spans and checks the written Chrome trace
// decodes through the in-repo decoder with every record intact, on the one
// scheduler lane.
func TestTraceRoundTrip(t *testing.T) {
	r := NewRecorder().EnableTrace()

	for i := 0; i < 3; i++ {
		sp := r.StartSpan(SpanRound)
		sp.EndArg2("new_edges", int64(i), "raised", int64(2*i))
	}
	r.StartSpan(SpanExtractBatch).EndArg("roots", 5)
	r.StartSpan(SpanExtractBatch).EndArg("roots", 7)
	r.NamedSpan("late-css").End()
	r.Instant("css.cycle_frozen", "len", 4)

	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	tf, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if got := tf.SpanCount("css.round"); got != 3 {
		t.Fatalf("css.round spans = %d, want 3", got)
	}
	if got := tf.SpanCount("extract.batch"); got != 2 {
		t.Fatalf("extract.batch spans = %d, want 2", got)
	}
	if got := tf.SpanCount("late-css"); got != 1 {
		t.Fatalf("named spans = %d, want 1", got)
	}

	// One thread-name record, for the scheduler lane, at the head of the
	// file; every event sits on that lane.
	if ev := tf.TraceEvents[0]; ev.Ph != "M" || ev.Name != "thread_name" || ev.Args["name"] != "scheduler" {
		t.Fatalf("first event = %+v, want the scheduler lane's thread_name", ev)
	}
	var lanes, instants int
	for _, ev := range tf.TraceEvents {
		if ev.TID != 0 {
			t.Fatalf("event %q on tid %d, want the scheduler lane", ev.Name, ev.TID)
		}
		switch ev.Ph {
		case "M":
			lanes++
		case "i":
			instants++
			if ev.Name != "css.cycle_frozen" || ev.Args["len"] != float64(4) {
				t.Fatalf("instant = %+v", ev)
			}
		}
	}
	if lanes != 1 {
		t.Fatalf("thread_name lanes = %d, want 1", lanes)
	}
	if instants != 1 {
		t.Fatalf("instant events = %d, want 1", instants)
	}

	// Span args survive the trip (JSON numbers decode as float64).
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Name == "css.round" && ev.Args["new_edges"] == float64(2) {
			if ev.Args["raised"] != float64(4) {
				t.Fatalf("round args = %v", ev.Args)
			}
			return
		}
	}
	t.Fatal("round span with new_edges=2 not found")
}

// TestWriteTraceRepeatable ensures WriteTrace emits a complete file each call
// (the debug-server / mid-run use case).
func TestWriteTraceRepeatable(t *testing.T) {
	r := NewRecorder().EnableTrace()
	r.StartSpan(SpanSchedule).End()
	var a, b bytes.Buffer
	if err := r.WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("back-to-back WriteTrace outputs differ")
	}
}

// TestDecodeTraceRejectsMalformed covers the validation paths.
func TestDecodeTraceRejectsMalformed(t *testing.T) {
	if _, err := DecodeTrace(strings.NewReader("{not json")); err == nil {
		t.Fatal("want error for non-JSON input")
	}
	missingPh := `{"traceEvents":[{"name":"x","ts":1,"pid":1,"tid":0}]}`
	if _, err := DecodeTrace(strings.NewReader(missingPh)); err == nil {
		t.Fatal("want error for event without phase")
	}
}

// TestHistogram checks the exponential-bucket math behind span summaries.
func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clamps to 0
	h.Observe(500 * time.Nanosecond)
	h.Observe(3 * time.Microsecond)
	h.Observe(100 * time.Microsecond)
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.Bucket[0] != 2 { // the two sub-µs observations
		t.Fatalf("bucket[0] = %d, want 2", s.Bucket[0])
	}
	if avg := s.AvgUs(); avg <= 0 || avg > 103.5/4+1 {
		t.Fatalf("avg = %v µs out of range", avg)
	}
	// p100 upper bound must cover the largest observation (100µs ⇒ ≤128µs).
	if q := s.QuantileUs(1.0); q < 100 || q > 128 {
		t.Fatalf("p100 = %v µs, want (100, 128]", q)
	}
	if q := s.QuantileUs(0); q != 1 {
		t.Fatalf("p0 = %v µs, want 1 (bucket-0 edge)", q)
	}
	if (HistSnapshot{}).AvgUs() != 0 || (HistSnapshot{}).QuantileUs(0.5) != 0 {
		t.Fatal("empty snapshot summaries should be 0")
	}
}
