package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Event is one structured JSONL record. One flat schema serves every event
// type so consumers (cmd/iterplot, ad-hoc jq) decode a single shape; unset
// fields are omitted. Types:
//
//   - "run":   a scheduling run started (Design, Method)
//   - "round": one update-extract round (the IterStats trajectory record)
//   - "phase": a coarse flow phase completed, with its post-phase QoR
//   - "qor":   one finished service job's final quality of results
//
// Events emitted on behalf of a service request carry the request ID in Req,
// matching the access-log line, the trace spans, and any error body of the
// same request.
type Event struct {
	Type  string `json:"type"`
	Req   string `json:"req,omitempty"`   // request ID for service-job correlation
	Phase string `json:"phase,omitempty"` // coarse flow phase, e.g. "early-css"
	Algo  string `json:"algo,omitempty"`  // "core" | "iccss" | "fpm"
	Mode  string `json:"mode,omitempty"`  // "early" | "late"

	Design string `json:"design,omitempty"`
	Method string `json:"method,omitempty"`

	Round     int     `json:"round,omitempty"`
	WNS       float64 `json:"wns,omitempty"`
	TNS       float64 `json:"tns,omitempty"`
	NewEdges  int     `json:"new_edges,omitempty"`
	Raised    int     `json:"raised,omitempty"`
	CycleLen  int     `json:"cycle_len,omitempty"`
	MaxInc    float64 `json:"max_inc,omitempty"`
	TimerPins int     `json:"timer_pins,omitempty"` // arrival pins only (IterStats.TimerPins)
	Stall     int     `json:"stall,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`

	// Corners, on multi-corner "round"/"qor" events, breaks the envelope
	// WNS/TNS above down by corner. Absent on single-corner runs.
	Corners []CornerStat `json:"corners,omitempty"`
}

// CornerStat is one corner's slice of a multi-corner event: the corner's own
// WNS/TNS in the event's mode, not the cross-corner envelope.
type CornerStat struct {
	Name string  `json:"name"`
	WNS  float64 `json:"wns"`
	TNS  float64 `json:"tns"`
}

// EventSink serializes events as JSON Lines to one writer. Writes are
// mutex-serialized so concurrent emitters never interleave mid-line, and
// each event is flushed as a complete line — a reader tailing the file
// during a live run sees only whole records (plus at most one torn final
// line at the instant of reading, which DecodeEvents tolerates).
type EventSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewEventSink wraps w in a line-buffered JSONL encoder.
func NewEventSink(w io.Writer) *EventSink {
	bw := bufio.NewWriter(w)
	return &EventSink{bw: bw, enc: json.NewEncoder(bw)}
}

// EnableEvents attaches a JSONL event sink writing to w; events emitted
// after this call are serialized there, one per line.
func (r *Recorder) EnableEvents(w io.Writer) *Recorder {
	r.events = NewEventSink(w)
	return r
}

// Emit writes one event line. The recorder's current phase label and default
// request ID are stamped onto the event if the event doesn't carry its own.
// No-op (and allocation-free) on a nil Recorder or when events are not
// enabled.
func (r *Recorder) Emit(ev Event) {
	if r == nil || r.events == nil {
		return
	}
	if ev.Phase == "" {
		ev.Phase = r.Phase()
	}
	if ev.Req == "" {
		ev.Req = r.Req()
	}
	r.events.Emit(ev)
}

// Emit writes one event line directly to the sink.
func (s *EventSink) Emit(ev Event) {
	s.mu.Lock()
	_ = s.enc.Encode(ev) // Encode appends the newline
	_ = s.bw.Flush()
	s.mu.Unlock()
}

// DecodeEvents reads a JSONL event stream, calling fn for each decoded
// event. A truncated or torn final line (a live run's in-flight write) ends
// the stream without error; a malformed line elsewhere is an error.
func DecodeEvents(rd io.Reader, fn func(Event)) error {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var pendingErr error
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if pendingErr != nil {
			// The malformed line was not the final one: real corruption.
			return pendingErr
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			pendingErr = err
			continue
		}
		fn(ev)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return nil
}
