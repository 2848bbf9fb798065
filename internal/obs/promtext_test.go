package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLabeledCtr covers the labeled counter vector: per-series isolation,
// nil-safety, and lock-free concurrent adds racing on old and new series.
func TestLabeledCtr(t *testing.T) {
	r := NewRecorder()
	c := r.LabeledCounter("reqs_total", "requests", "route", "code")
	c.Add(2, "jobs", "200")
	c.Add(1, "jobs", "429")
	c.Add(5, "upload", "200")
	if got := c.Value("jobs", "200"); got != 2 {
		t.Fatalf(`Value(jobs,200) = %d, want 2`, got)
	}
	if got := c.Value("jobs", "429"); got != 1 {
		t.Fatalf(`Value(jobs,429) = %d, want 1`, got)
	}
	if got := c.Value("nope", "0"); got != 0 {
		t.Fatalf("unwritten series = %d, want 0", got)
	}

	// Same name returns the same vector.
	if c2 := r.LabeledCounter("reqs_total", "other help"); c2 != c {
		t.Fatal("LabeledCounter did not return the registered vector")
	}

	// nil Recorder and nil vector no-op.
	var nilRec *Recorder
	nc := nilRec.LabeledCounter("x", "y")
	nc.Add(1, "a")
	if nc.Value("a") != 0 {
		t.Fatal("nil LabeledCtr must read 0")
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(1, "conc", "200")
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value("conc", "200"); got != 8000 {
		t.Fatalf("concurrent adds: %d, want 8000", got)
	}
}

// TestBucketHist covers the explicit-bucket histogram vector: inclusive
// bucket edges, the implicit +Inf bucket, exact sums, and concurrent
// observers (the float64-CAS sum path is only meaningful under -race).
func TestBucketHist(t *testing.T) {
	r := NewRecorder()
	h := r.BucketHistogram("lat_seconds", "latency", []float64{0.1, 1, 10}, "route")

	// Edge inclusivity: an observation exactly on a bound lands in that
	// bound's bucket (le is <=).
	h.Observe(0.1, "a")
	h.Observe(0.5, "a")
	h.Observe(10.0, "a")
	h.Observe(99.0, "a") // +Inf bucket
	if got := h.Count("a"); got != 4 {
		t.Fatalf("Count(a) = %d, want 4", got)
	}

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`iterskew_lat_seconds_bucket{route="a",le="0.1"} 1`,
		`iterskew_lat_seconds_bucket{route="a",le="1"} 2`,
		`iterskew_lat_seconds_bucket{route="a",le="10"} 3`,
		`iterskew_lat_seconds_bucket{route="a",le="+Inf"} 4`,
		`iterskew_lat_seconds_count{route="a"} 4`,
		`iterskew_lat_seconds_sum{route="a"} 109.6`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Observe(0.25, "conc")
			}
		}()
	}
	wg.Wait()
	if got := h.Count("conc"); got != 4000 {
		t.Fatalf("concurrent observes: %d, want 4000", got)
	}

	var nilH *BucketHist
	nilH.Observe(1, "x") // must not panic
}

// TestWritePrometheusRoundTrip feeds a fully populated recorder (enum
// counters, gauges, span histograms, labeled families with values needing
// escaping) through the encoder and back through ParseExposition.
func TestWritePrometheusRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Add(CtrRounds, 7)
	r.SetGauge(GaugeGraphVerts, 3)
	r.StartSpan(SpanTimerUpdate).End()
	sp := r.StartSpan(SpanRound)
	time.Sleep(time.Millisecond)
	sp.End()

	c := r.LabeledCounter("odd_total", "label values with \"quotes\" and \\slashes\\", "k")
	c.Add(1, `va"l`)
	c.Add(2, `back\slash`)
	h := r.BucketHistogram("h_seconds", "hist", []float64{0.5, 5}, "s")
	h.Observe(0.2, "x")
	h.Observe(7, "x")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("self-emitted exposition fails to parse: %v\n%s", err, buf.String())
	}
	if got := samples["iterskew_rounds_total"]; got != 7 {
		t.Fatalf("rounds_total = %v, want 7", got)
	}
	if got := samples["iterskew_graph_verts"]; got != 3 {
		t.Fatalf("graph_verts gauge = %v, want 3", got)
	}
	if got := samples[`iterskew_span_duration_seconds_count{kind="timer.update"}`]; got != 1 {
		t.Fatalf("span count = %v, want 1", got)
	}
	if got := samples[`iterskew_odd_total{k="va\"l"}`]; got != 1 {
		t.Fatalf("escaped label sample = %v, want 1 (samples: %v)", got, samples)
	}
	if got := samples[`iterskew_h_seconds_bucket{s="x",le="+Inf"}`]; got != 2 {
		t.Fatalf("+Inf bucket = %v, want 2", got)
	}
	// Zero-count span kinds must be omitted entirely.
	if strings.Contains(buf.String(), `kind="extract.batch"`) {
		t.Fatal("zero-count span kind leaked into the exposition")
	}
}

// TestMetricsHandler checks the HTTP surface: content type and a parseable
// body, including on a nil recorder.
func TestMetricsHandler(t *testing.T) {
	r := NewRecorder()
	r.Add(CtrRounds, 1)
	rr := httptest.NewRecorder()
	MetricsHandler(r).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q, want text v0.0.4", ct)
	}
	if _, err := ParseExposition(rr.Body.Bytes()); err != nil {
		t.Fatalf("handler body does not parse: %v", err)
	}

	rr = httptest.NewRecorder()
	MetricsHandler(nil).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != 200 || rr.Body.Len() != 0 {
		t.Fatalf("nil-recorder handler: code %d, %d body bytes", rr.Code, rr.Body.Len())
	}
}

// TestParseExpositionRejects locks the validator's error cases: garbage
// lines, samples without # TYPE, non-cumulative buckets, +Inf/_count
// disagreement, and duplicate samples.
func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"malformed sample": "what even is this {",
		"no type":          "lone_metric 3\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" +
			`h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\n" +
			"h_count 5\n",
		"missing +Inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" +
			"h_count 5\n",
		"inf != count": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 5` + "\n" +
			"h_count 6\n",
		"duplicate sample": "# TYPE c counter\nc 1\nc 2\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition([]byte(text)); err == nil {
			t.Errorf("%s: ParseExposition accepted invalid payload:\n%s", name, text)
		}
	}

	// And a well-formed multi-family payload parses.
	good := "# HELP c_total help text\n# TYPE c_total counter\nc_total 1\n" +
		"# TYPE g gauge\ng 2.5\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="1"} 1` + "\n" +
		`h_bucket{le="+Inf"} 2` + "\n" +
		"h_sum 3.5\nh_count 2\n"
	samples, err := ParseExposition([]byte(good))
	if err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	if samples["g"] != 2.5 || samples["c_total"] != 1 {
		t.Fatalf("parsed samples wrong: %v", samples)
	}
}

// TestRequestIDContext covers the context plumbing and ID generation.
func TestRequestIDContext(t *testing.T) {
	if got := RequestID(nil); got != "" { //nolint:staticcheck // nil ctx is the documented degenerate case
		t.Fatalf("RequestID(nil) = %q, want empty", got)
	}
	ctx := t.Context()
	if got := RequestID(ctx); got != "" {
		t.Fatalf("RequestID(no id) = %q, want empty", got)
	}
	ctx2 := WithRequestID(ctx, "abc123")
	if got := RequestID(ctx2); got != "abc123" {
		t.Fatalf("RequestID = %q, want abc123", got)
	}
	if WithRequestID(ctx, "") != ctx {
		t.Fatal("WithRequestID(\"\") must return the context unchanged")
	}

	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("NewRequestID() = %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("NewRequestID collision: %q", id)
		}
		seen[id] = true
	}
}

// TestRecorderReq covers the default-request-ID stamp on emitted events.
func TestRecorderReq(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder().EnableEvents(&buf)
	r.SetReq("req-1")
	if got := r.Req(); got != "req-1" {
		t.Fatalf("Req() = %q", got)
	}
	r.Emit(Event{Type: "round", Round: 1})
	r.Emit(Event{Type: "round", Round: 2, Req: "explicit"})

	var reqs []string
	if err := DecodeEvents(&buf, func(ev Event) { reqs = append(reqs, ev.Req) }); err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || reqs[0] != "req-1" || reqs[1] != "explicit" {
		t.Fatalf("event req stamping: %v", reqs)
	}

	var nilRec *Recorder
	nilRec.SetReq("x") // must not panic
	if nilRec.Req() != "" {
		t.Fatal("nil recorder Req() must be empty")
	}
}
