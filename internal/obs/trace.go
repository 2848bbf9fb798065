package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// SpanKind enumerates the hot-path span names. Enum-keyed spans are
// allocation-free on the tracing-disabled path and feed the per-kind
// duration histograms; use NamedSpan for cold, dynamically named phases.
type SpanKind int

// The span set. Names use dotted lower-case so traces group naturally in
// Perfetto's search.
const (
	SpanTimerUpdate     SpanKind = iota // one incremental State.Update
	SpanTimerFullUpdate                 // one FullUpdate
	SpanExtractBatch                    // one batch extraction call
	SpanRound                           // one update-extract scheduling round
	SpanRoundExtract                    // the round's essential-edge extraction
	SpanRoundForest                     // arborescence construction + cycle check
	SpanRoundPasses                     // the two-pass latency traversal
	SpanSchedule                        // one whole Schedule call

	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	SpanTimerUpdate:     "timer.update",
	SpanTimerFullUpdate: "timer.full_update",
	SpanExtractBatch:    "extract.batch",
	SpanRound:           "css.round",
	SpanRoundExtract:    "css.extract",
	SpanRoundForest:     "css.forest",
	SpanRoundPasses:     "css.passes",
	SpanSchedule:        "css.schedule",
}

// String returns the span kind's trace name.
func (k SpanKind) String() string { return spanNames[k] }

// Span is an open interval returned by StartSpan/NamedSpan. It is
// a plain value — copy it, pass it, and call exactly one of the End variants
// when the work completes. The zero Span (from a nil Recorder) is inert.
type Span struct {
	r     *Recorder
	name  string // overrides spanNames[kind] when non-empty (NamedSpan)
	req   string // request ID rendered into the trace args (WithReq)
	kind  SpanKind
	start time.Time
}

// WithReq tags the span with a request ID: the serialized trace event gains
// a "req" arg, correlating it with the JSONL events, access-log line, and
// error body of the same service request. An empty id (or the inert zero
// Span) is a no-op, so call sites can pass the context-derived ID through
// unconditionally.
func (s Span) WithReq(id string) Span {
	if s.r != nil {
		s.req = id
	}
	return s
}

// StartSpan opens an enum-keyed span. On a nil Recorder it returns the inert
// zero Span without reading the clock.
func (r *Recorder) StartSpan(k SpanKind) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, kind: k, start: time.Now()}
}

// NamedSpan opens a dynamically named span (no histogram; cold paths only).
func (r *Recorder) NamedSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, name: name, start: time.Now()}
}

// End closes the span with no arguments.
func (s Span) End() { s.end(0, "", 0, "", 0) }

// EndArg closes the span recording one integer argument (rendered in the
// trace viewer's args pane).
func (s Span) EndArg(name string, v int64) { s.end(1, name, v, "", 0) }

// EndArg2 closes the span recording two integer arguments.
func (s Span) EndArg2(n1 string, v1 int64, n2 string, v2 int64) { s.end(2, n1, v1, n2, v2) }

func (s Span) end(nargs int, n1 string, v1 int64, n2 string, v2 int64) {
	if s.r == nil {
		return
	}
	d := time.Since(s.start)
	if s.name == "" {
		s.r.hists[s.kind].Observe(d)
	}
	tr := s.r.tracer
	if tr == nil {
		return
	}
	name := s.name
	if name == "" {
		name = spanNames[s.kind]
	}
	ev := traceEvent{
		name: name,
		req:  s.req,
		ts:   s.start,
		dur:  d,
	}
	if nargs >= 1 {
		ev.a1Name, ev.a1 = n1, v1
	}
	if nargs >= 2 {
		ev.a2Name, ev.a2 = n2, v2
	}
	tr.add(ev)
}

// AdoptTracer points this recorder's span buffer at parent's, so spans
// recorded through it land in the parent's Chrome trace. The per-request
// recorder of a streamed service job adopts the daemon recorder's tracer:
// the request's JSONL events flow to the client while its spans stay in the
// daemon-wide trace, request-tagged. No-op when either side is nil or the
// parent has tracing disabled.
func (r *Recorder) AdoptTracer(parent *Recorder) *Recorder {
	if r == nil || parent == nil || parent.tracer == nil {
		return r
	}
	r.tracer = parent.tracer
	return r
}

// Instant records a zero-duration marker event (trace only).
func (r *Recorder) Instant(name string, argName string, arg int64) {
	if r == nil || r.tracer == nil {
		return
	}
	r.tracer.add(traceEvent{name: name, ts: time.Now(), instant: true, a1Name: argName, a1: arg})
}

// traceEvent is one buffered span or instant, pre-serialization.
type traceEvent struct {
	name           string
	req            string // request ID ("" = not request-scoped)
	ts             time.Time
	dur            time.Duration
	instant        bool
	a1Name, a2Name string
	a1, a2         int64
}

// Tracer buffers trace events in memory; WriteTrace serializes them. The
// in-memory model keeps the record path to an append under a mutex — spans
// from concurrent sessions interleave safely and the file is written once,
// complete and well-formed, at the end of the run. Every event renders on
// one lane, named "scheduler".
type Tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []traceEvent
}

func newTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

func (tr *Tracer) add(ev traceEvent) {
	tr.mu.Lock()
	tr.events = append(tr.events, ev)
	tr.mu.Unlock()
}

// TraceEvent is the wire form of one Chrome trace_event record; it doubles
// as the decoder's target so traces round-trip through this package.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"` // "X" complete, "i" instant, "M" metadata
	TS   int64          `json:"ts"` // µs since trace epoch
	Dur  int64          `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the JSON-object envelope of a Chrome trace.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
}

// WriteTrace serializes everything traced so far as Chrome trace_event JSON
// (load via chrome://tracing or https://ui.perfetto.dev). It may be called
// repeatedly; each call writes a complete, self-contained file.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil || r.tracer == nil {
		return fmt.Errorf("obs: tracing not enabled")
	}
	tr := r.tracer
	tr.mu.Lock()
	events := make([]traceEvent, len(tr.events))
	copy(events, tr.events)
	epoch := tr.epoch
	tr.mu.Unlock()

	out := TraceFile{DisplayTimeUnit: "ms", TraceEvents: []TraceEvent{{
		Name: "thread_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "scheduler"},
	}}}
	for _, ev := range events {
		te := TraceEvent{
			Name: ev.name,
			Ph:   "X",
			TS:   ev.ts.Sub(epoch).Microseconds(),
			Dur:  ev.dur.Microseconds(),
			PID:  1,
		}
		if ev.instant {
			te.Ph = "i"
			te.Dur = 0
		}
		if ev.a1Name != "" || ev.a2Name != "" || ev.req != "" {
			te.Args = map[string]any{}
			if ev.a1Name != "" {
				te.Args[ev.a1Name] = ev.a1
			}
			if ev.a2Name != "" {
				te.Args[ev.a2Name] = ev.a2
			}
			if ev.req != "" {
				te.Args["req"] = ev.req
			}
		}
		out.TraceEvents = append(out.TraceEvents, te)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// DecodeTrace parses a Chrome trace_event file produced by WriteTrace (or
// any tool emitting the object form). It validates the envelope shape and
// that every event carries a phase.
func DecodeTrace(rd io.Reader) (*TraceFile, error) {
	var tf TraceFile
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("obs: malformed trace: %w", err)
	}
	for i, ev := range tf.TraceEvents {
		if ev.Ph == "" {
			return nil, fmt.Errorf("obs: trace event %d (%q) missing phase", i, ev.Name)
		}
	}
	return &tf, nil
}

// SpanCount returns how many complete ("X") events named name the trace
// holds — the smoke checks use it to assert round and extraction coverage.
func (tf *TraceFile) SpanCount(name string) int {
	n := 0
	for _, ev := range tf.TraceEvents {
		if ev.Ph == "X" && ev.Name == name {
			n++
		}
	}
	return n
}
