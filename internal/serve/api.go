package serve

import (
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"iterskew/internal/engine"
	"iterskew/internal/graphio"
	"iterskew/internal/netlist"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// The HTTP/JSON surface. Wire types are exported so clients (cmd/cssbench's
// load harness, the e2e tests) marshal against the same structs the daemon
// decodes — the schema cannot drift between the two sides.
//
//	POST /v1/graphs              netlist text body → UploadResponse
//	GET  /v1/graphs/{handle}     → GraphInfo
//	POST /v1/graphs/{handle}/jobs JobSpec body → JobResponse (or JSONL stream)
//	GET  /v1/stats               → StatsResponse
//	GET  /v1/healthz             → 200 "ok" | 503 while draining
//
// Every error is ErrorResponse JSON with a 4xx status: 400 for anything
// wrong with the request itself (unparseable netlist, degenerate design,
// malformed job spec, unknown scheduler/mode, non-positive what-if period),
// 404 for a handle that is not resident (never uploaded, or evicted by the
// cache's byte budget), 429 with a Retry-After header when every session
// slot is busy, and 503 once draining has begun.

// UploadResponse acknowledges one netlist upload: the content-addressed
// graph handle plus the design's headline shape. Cached reports whether the
// compiled graph was already resident (the upload cost one hash and nothing
// else).
type UploadResponse struct {
	Handle   string  `json:"handle"`
	Cached   bool    `json:"cached"`
	Cells    int     `json:"cells"`
	FFs      int     `json:"ffs"`
	Nets     int     `json:"nets"`
	PeriodPS float64 `json:"period_ps"`
}

// GraphInfo describes one resident compiled graph.
type GraphInfo struct {
	Handle     string  `json:"handle"`
	Cells      int     `json:"cells"`
	FFs        int     `json:"ffs"`
	Nets       int     `json:"nets"`
	PeriodPS   float64 `json:"period_ps"`
	GraphBytes int64   `json:"graph_bytes"`
}

// JobSpec is one scheduling request against an uploaded graph. The zero
// value runs the paper's core scheduler in early mode at the design's own
// period to convergence.
type JobSpec struct {
	// Scheduler selects the CSS implementation: "core" (default), "iccss",
	// or "fpm".
	Scheduler string `json:"scheduler,omitempty"`
	// Mode is "early" (default) or "late".
	Mode string `json:"mode,omitempty"`
	// PeriodPS, when nonzero, retimes this session to a what-if clock period.
	PeriodPS float64 `json:"period_ps,omitempty"`
	// DerateEarly / DerateLate, when present, override the delay derates for
	// this session only. Absent fields keep the model's values; a present
	// field must be a positive finite derate (an explicit 0 is a 400, not a
	// silent no-op).
	DerateEarly *float64 `json:"derate_early,omitempty"`
	DerateLate  *float64 `json:"derate_late,omitempty"`
	// Corners, when present, runs the job multi-corner: the scheduler
	// optimizes the worst-case envelope over every listed period/derate
	// universe and the response gains a per-corner QoR breakdown. A corners
	// job must not also set the top-level PeriodPS/Derate* overrides.
	Corners []CornerSpec `json:"corners,omitempty"`
	// MaxRounds caps the update-extract rounds (0 = scheduler default; the
	// server may clamp it to Config.MaxJobRounds).
	MaxRounds int `json:"max_rounds,omitempty"`
	// MarginPS widens essential-edge extraction (core scheduler).
	MarginPS float64 `json:"margin_ps,omitempty"`
	// TimeoutMS bounds the job's wall clock; the scheduler stops
	// cooperatively with stop_reason "deadline" and a consistent partial
	// schedule.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Stream switches the response to chunked JSONL: one obs round event per
	// line while the scheduler runs, then a final line carrying the
	// JobResponse (distinguished by "type":"result").
	Stream bool `json:"stream,omitempty"`
}

// PhaseInfo is the element type of JobResponse.Phases.
type PhaseInfo struct {
	ElapsedMS float64 `json:"elapsed_ms"`
}

// CornerSpec is one analysis corner of a multi-corner job.
type CornerSpec struct {
	// Name labels the corner in events, metrics, and the response breakdown;
	// empty names are auto-assigned "c0", "c1", … in list order. Names must
	// be unique within one job.
	Name string `json:"name,omitempty"`
	// PeriodPS is the corner's clock period; required and positive.
	PeriodPS float64 `json:"period_ps"`
	// DerateEarly / DerateLate, when present, set the corner's derates;
	// absent fields keep the model's values.
	DerateEarly *float64 `json:"derate_early,omitempty"`
	DerateLate  *float64 `json:"derate_late,omitempty"`
}

// CornerResult is one corner's slice of a multi-corner JobResponse: the
// corner's own post-schedule WNS/TNS under the single shared latency
// assignment.
type CornerResult struct {
	Name       string  `json:"name"`
	PeriodPS   float64 `json:"period_ps"`
	WNSEarlyPS float64 `json:"wns_early_ps"`
	TNSEarlyPS float64 `json:"tns_early_ps"`
	WNSLatePS  float64 `json:"wns_late_ps"`
	TNSLatePS  float64 `json:"tns_late_ps"`
}

// JobResponse is one finished scheduling job. Type is always "result" so the
// same struct terminates a JSONL stream unambiguously. Floats round-trip
// exactly through JSON (Go emits the shortest representation that decodes to
// the identical float64), so Target and the QoR fields are byte-identity
// comparable against an in-process run.
type JobResponse struct {
	Type      string `json:"type"`
	Handle    string `json:"handle"`
	Scheduler string `json:"scheduler"`
	Mode      string `json:"mode"`

	StopReason     string  `json:"stop_reason"`
	Rounds         int     `json:"rounds"`
	Cycles         int     `json:"cycles"`
	EdgesExtracted int     `json:"edges_extracted"`
	ElapsedMS      float64 `json:"elapsed_ms"`

	WNSEarlyPS float64 `json:"wns_early_ps"`
	TNSEarlyPS float64 `json:"tns_early_ps"`
	WNSLatePS  float64 `json:"wns_late_ps"`
	TNSLatePS  float64 `json:"tns_late_ps"`

	// Corners, on multi-corner jobs, breaks the QoR down by corner (the
	// headline WNS/TNS fields above then report the worst-case envelope).
	Corners []CornerResult `json:"corners,omitempty"`
	// CornerDiffRounds counts extraction rounds in which the corners
	// disagreed on the essential edge set — nonzero proves the union path
	// did real multi-corner work on this job.
	CornerDiffRounds int `json:"corner_diff_rounds,omitempty"`

	// Phases is never filled; it stays so existing clients keep compiling.
	Phases []PhaseInfo `json:"phases,omitempty"`

	// Target maps flip-flop cell ID (decimal string) → scheduled extra
	// latency in ps; only positive entries appear.
	Target map[string]float64 `json:"target"`
}

// TargetCells converts the wire-format schedule back to cell IDs.
func (r *JobResponse) TargetCells() (map[netlist.CellID]float64, error) {
	out := make(map[netlist.CellID]float64, len(r.Target))
	for k, v := range r.Target {
		id, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("serve: bad target cell id %q: %w", k, err)
		}
		out[netlist.CellID(id)] = v
	}
	return out, nil
}

// StatsResponse is a point-in-time snapshot of the daemon.
type StatsResponse struct {
	Version         string `json:"version"`
	Graphs          int    `json:"graphs"`
	GraphBytes      int64  `json:"graph_bytes"`
	InFlight        int    `json:"in_flight"`
	MaxInFlight     int    `json:"max_in_flight"`
	Draining        bool   `json:"draining"`
	StatesCreated   int    `json:"states_created"`
	StatesDiscarded int    `json:"states_discarded"`
	Uploads         int64  `json:"uploads"`
	Jobs            int64  `json:"jobs"`
	Rejected        int64  `json:"rejected_429"`
	Cancelled       int64  `json:"jobs_cancelled"`
	Streams         int64  `json:"jobs_streamed"`
}

// ErrorResponse is the body of every non-2xx answer. RequestID echoes the
// X-Request-Id response header so a failed request is greppable in the
// access log and trace from its body alone.
type ErrorResponse struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// VersionResponse is the body of GET /v1/version: the daemon's build
// identity from the embedded runtime/debug.BuildInfo.
type VersionResponse struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version,omitempty"`
	Module    string `json:"module"`
}

// parseHandle decodes a graph handle: 64 hex characters of sha256.
func parseHandle(s string) (graphio.Hash, error) {
	var h graphio.Hash
	if len(s) != 2*len(h) {
		return h, fmt.Errorf("handle must be %d hex characters, got %d", 2*len(h), len(s))
	}
	if _, err := hex.Decode(h[:], []byte(s)); err != nil {
		return h, fmt.Errorf("handle is not hex: %v", err)
	}
	return h, nil
}

// parseMode maps a JobSpec mode string onto timing.Mode.
func parseMode(s string) (timing.Mode, error) {
	switch s {
	case "", "early":
		return timing.Early, nil
	case "late":
		return timing.Late, nil
	}
	return timing.Early, fmt.Errorf("unknown mode %q (want \"early\" or \"late\")", s)
}

// wireDerate validates one optional derate override off the wire: absent is
// "keep the model's value", present must be a positive finite multiplier.
func wireDerate(field string, p *float64) (float64, error) {
	if p == nil {
		return 0, nil
	}
	if v := *p; v > 0 && !math.IsInf(v, 1) {
		return v, nil
	}
	return 0, fmt.Errorf("%s %v must be a positive finite derate", field, *p)
}

// cornerList validates the spec's corner block and converts it to the
// engine's corner type. Every violation here is a client error (400): an
// explicitly empty list, a corner without a positive finite period, a
// non-positive/non-finite derate, a duplicate name, or corners combined
// with the top-level what-if overrides.
func (spec *JobSpec) cornerList() ([]engine.Corner, error) {
	if spec.Corners == nil {
		return nil, nil
	}
	if len(spec.Corners) == 0 {
		return nil, fmt.Errorf("corners: list is empty (omit the field for a single-corner job)")
	}
	if spec.PeriodPS != 0 || spec.DerateEarly != nil || spec.DerateLate != nil {
		return nil, fmt.Errorf("corners: must not be combined with top-level period_ps/derate overrides")
	}
	out := make([]engine.Corner, len(spec.Corners))
	seen := make(map[string]bool, len(spec.Corners))
	for i, c := range spec.Corners {
		if !(c.PeriodPS > 0) || math.IsInf(c.PeriodPS, 1) {
			return nil, fmt.Errorf("corners[%d]: period_ps %v must be positive and finite", i, c.PeriodPS)
		}
		de, err := wireDerate("derate_early", c.DerateEarly)
		if err != nil {
			return nil, fmt.Errorf("corners[%d]: %w", i, err)
		}
		dl, err := wireDerate("derate_late", c.DerateLate)
		if err != nil {
			return nil, fmt.Errorf("corners[%d]: %w", i, err)
		}
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("c%d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("corners[%d]: duplicate corner name %q", i, name)
		}
		seen[name] = true
		out[i] = engine.Corner{Name: name, Period: c.PeriodPS, DerateEarly: de, DerateLate: dl}
	}
	return out, nil
}

// options converts the spec's scheduler knobs into sched.Options, clamping
// the round budget to the server-wide cap. Negative client values are
// normalized to 0 (scheduler default) so a spec can never disable the
// schedulers' own termination guards.
func (spec *JobSpec) options(mode timing.Mode, maxJobRounds int) sched.Options {
	rounds := spec.MaxRounds
	if rounds < 0 {
		rounds = 0
	}
	if maxJobRounds > 0 && (rounds == 0 || rounds > maxJobRounds) {
		rounds = maxJobRounds
	}
	return sched.Options{
		Mode:      mode,
		MaxRounds: rounds,
		Margin:    spec.MarginPS,
	}
}
