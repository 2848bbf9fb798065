package timing

import (
	"fmt"
	"math"
	"sync"

	"iterskew/internal/netlist"
	"iterskew/internal/obs"
)

// Corner names one analysis universe of a multi-corner run: a clock period
// plus early/late delay derates. Zero fields inherit the design/model
// defaults, matching the State conventions (SetPeriod is never called with
// 0; derate 0 normalizes to the model's value).
type Corner struct {
	// Name labels the corner in events, metrics, and oracle certificates.
	// Empty names are auto-assigned "c0", "c1", … in corner order.
	Name string
	// Period is the corner's clock period in ps; 0 means the design's own.
	Period float64
	// DerateEarly / DerateLate scale the corner's arc delays; 0 keeps the
	// delay model's derate for that mode.
	DerateEarly float64
	DerateLate  float64
}

// CornerSet joins N states over one shared Graph — each with its own
// period/derates — into a single sched.TimingView: worst-case-envelope
// slacks (per-endpoint minimum over corners) and the cross-corner union of
// essential edges, so a scheduler written against the view satisfies every
// corner at once.
//
// The join leans on two invariants of the State design:
//
//  1. Latencies are corner-invariant. The clock network is never derated
//     (recomputeClock), so base latencies agree across corners, and
//     AddExtraLatency fans out to every state, so extra latencies do too.
//     One latency assignment therefore means the same thing in every
//     corner.
//
//  2. Late-edge slacks are affine in the period. A late edge extracted in
//     corner c has slack l_cap + T_c − setup − (l_launch + Delay); storing
//     Delay + (T_ref − T_c) instead makes the same edge evaluate to the
//     identical slack at the reference corner's period T_ref. Early-edge
//     slacks have no period term (the corner's derate is already baked into
//     the traced Delay). Extraction therefore normalizes every late edge to
//     T_ref = the minimum corner period, and EdgeSlack — the schedulers'
//     authoritative weight function — is simply the reference state's.
//
// Normalization also makes the union dedup-friendly: two corners extracting
// the same (launch, capture) pair yield comparable delays, and seqgraph's
// keep-worst dedup picks the binding corner's edge automatically. A
// duplicated corner contributes byte-identical edges and a no-op to every
// envelope minimum, so it can never change a schedule.
type CornerSet struct {
	g      *Graph
	states []*State
	names  []string
	ref    int // index of the minimum-period corner (defines T_ref)

	mu         sync.Mutex // guards diffRounds (extraction can run under workers)
	diffRounds int

	keys map[cornerEdgeKey]struct{} // scratch for per-call set comparison
}

type cornerEdgeKey struct {
	launch, capture netlist.CellID
	mode            Mode
}

// NewCornerSet builds one state per corner over g and joins them. Corners
// must be non-empty with positive finite resolved periods, non-negative
// finite derates, and distinct names (empty names are auto-assigned).
func NewCornerSet(g *Graph, corners []Corner) (*CornerSet, error) {
	if err := ValidateCorners(g.D.Period, corners); err != nil {
		return nil, err
	}
	states := make([]*State, len(corners))
	names := make([]string, len(corners))
	for i, c := range corners {
		s := g.NewState()
		if c.Period != 0 {
			s.SetPeriod(c.Period)
		}
		if c.DerateEarly != 0 || c.DerateLate != 0 {
			de, dl := s.Derates()
			if c.DerateEarly != 0 {
				de = c.DerateEarly
			}
			if c.DerateLate != 0 {
				dl = c.DerateLate
			}
			s.SetDerates(de, dl)
		}
		states[i] = s
		names[i] = c.Name
		if names[i] == "" {
			names[i] = fmt.Sprintf("c%d", i)
		}
	}
	return NewCornerSetFrom(states, names)
}

// NewCornerSetFrom joins already-configured states (e.g. an engine's pooled
// states, each retimed/derated for its corner) into a CornerSet. All states
// must share one Graph; names must match states 1:1 and be distinct (empty
// entries are auto-assigned "c<i>").
func NewCornerSetFrom(states []*State, names []string) (*CornerSet, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("timing: corner set needs at least one state")
	}
	if len(names) != len(states) {
		return nil, fmt.Errorf("timing: corner set has %d states but %d names", len(states), len(names))
	}
	resolved := make([]string, len(names))
	seen := make(map[string]bool, len(names))
	ref := 0
	for i, s := range states {
		if s.Graph != states[0].Graph {
			return nil, fmt.Errorf("timing: corner state %d is not on the shared graph", i)
		}
		if !(s.Period() > 0) || math.IsInf(s.Period(), 1) {
			return nil, fmt.Errorf("timing: corner %d has non-positive period %v", i, s.Period())
		}
		n := names[i]
		if n == "" {
			n = fmt.Sprintf("c%d", i)
		}
		if seen[n] {
			return nil, fmt.Errorf("timing: duplicate corner name %q", n)
		}
		seen[n] = true
		resolved[i] = n
		if s.Period() < states[ref].Period() {
			ref = i
		}
	}
	return &CornerSet{g: states[0].Graph, states: states, names: resolved, ref: ref}, nil
}

// ValidateCorners checks a corner list for the degenerate shapes the
// constructors (and the serve layer) reject: an empty list, a non-positive
// or non-finite resolved period, a negative/zero/NaN explicit derate, or a
// duplicate name. designPeriod resolves Period == 0 entries.
func ValidateCorners(designPeriod float64, corners []Corner) error {
	if len(corners) == 0 {
		return fmt.Errorf("timing: corner list is empty")
	}
	seen := make(map[string]bool, len(corners))
	for i, c := range corners {
		p := c.Period
		if p == 0 {
			p = designPeriod
		}
		if !(p > 0) || math.IsInf(p, 1) {
			return fmt.Errorf("timing: corner %d (%s) has non-positive period %v", i, nameOr(c.Name, i), c.Period)
		}
		for _, d := range [2]float64{c.DerateEarly, c.DerateLate} {
			if d != 0 && (!(d > 0) || math.IsInf(d, 1)) {
				return fmt.Errorf("timing: corner %d (%s) has invalid derate %v", i, nameOr(c.Name, i), d)
			}
		}
		n := nameOr(c.Name, i)
		if seen[n] {
			return fmt.Errorf("timing: duplicate corner name %q", n)
		}
		seen[n] = true
	}
	return nil
}

func nameOr(name string, i int) string {
	if name == "" {
		return fmt.Sprintf("c%d", i)
	}
	return name
}

// NumCorners reports how many corners the set joins.
func (cs *CornerSet) NumCorners() int { return len(cs.states) }

// CornerName returns corner i's label.
func (cs *CornerSet) CornerName(i int) string { return cs.names[i] }

// State exposes corner i's underlying state (oracle checks and tests).
func (cs *CornerSet) State(i int) *State { return cs.states[i] }

// RefCorner returns the index of the reference (minimum-period) corner.
func (cs *CornerSet) RefCorner() int { return cs.ref }

// CornerWNSTNS reports corner i's own WNS/TNS — the per-corner breakdown of
// the envelope the schedulers optimize.
func (cs *CornerSet) CornerWNSTNS(i int, m Mode) (wns, tns float64) {
	return cs.states[i].WNSTNS(m)
}

// UnionDiffRounds counts extraction calls in which at least two corners
// disagreed on the essential edge set — evidence the union path did real
// multi-corner work rather than N copies of the same extraction.
func (cs *CornerSet) UnionDiffRounds() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.diffRounds
}

// Design returns the shared design.
func (cs *CornerSet) Design() *netlist.Design { return cs.g.D }

// Endpoints returns the shared endpoint table.
func (cs *CornerSet) Endpoints() []Endpoint { return cs.g.Endpoints() }

// EndpointOf maps a cell to its endpoint.
func (cs *CornerSet) EndpointOf(c netlist.CellID) EndpointID { return cs.g.EndpointOf(c) }

// Period returns the reference corner's period — the tightest clock, and
// the period every normalized late edge is expressed against.
func (cs *CornerSet) Period() float64 { return cs.states[cs.ref].period }

// Slack returns the envelope slack of an endpoint: the minimum over
// corners, so a nonnegative value means the endpoint meets every corner.
func (cs *CornerSet) Slack(e EndpointID, m Mode) float64 {
	worst := math.Inf(1)
	for _, s := range cs.states {
		if v := s.Slack(e, m); v < worst {
			worst = v
		}
	}
	return worst
}

// EarlySlack returns the envelope hold slack of an endpoint.
func (cs *CornerSet) EarlySlack(e EndpointID) float64 {
	worst := math.Inf(1)
	for _, s := range cs.states {
		if v := s.EarlySlack(e); v < worst {
			worst = v
		}
	}
	return worst
}

// LaunchLateSlack returns the envelope ŝ^L bound of §III-C1: the worst
// late slack over launched paths in any corner, so the Eq-11 headroom clamp
// never trades a hold fix in one corner for a setup break in another.
func (cs *CornerSet) LaunchLateSlack(ff netlist.CellID) float64 {
	cs.settleRequired()
	worst := math.Inf(1)
	for _, s := range cs.states {
		if v := s.LaunchLateSlack(ff); v < worst {
			worst = v
		}
	}
	return worst
}

// settleRequired drains the required times every corner's Update left
// queued, one goroutine per corner as in Update, so the first envelope read
// after an Update waits for the slowest corner's backward pass, not for
// their sum. A corner with a checkpoint open is left to its own read, which
// panics on the caller's goroutine.
func (cs *CornerSet) settleRequired() {
	if len(cs.states) == 1 {
		return // the corner drains inline at its own read
	}
	var wg sync.WaitGroup
	for _, s := range cs.states {
		if s.reqStale && !s.undo.open {
			wg.Add(1)
			go func(s *State) {
				defer wg.Done()
				s.settleRequired()
			}(s)
		}
	}
	wg.Wait()
}

// WNSTNS returns worst and total negative envelope slack: each endpoint
// contributes its worst corner once, matching ViolatedEndpoints and Slack.
func (cs *CornerSet) WNSTNS(m Mode) (wns, tns float64) {
	for e := range cs.g.endpoints {
		s := cs.Slack(EndpointID(e), m)
		if s < 0 {
			tns += s
			if s < wns {
				wns = s
			}
		}
	}
	return wns, tns
}

// ViolatedEndpoints appends the endpoints violating in at least one corner.
func (cs *CornerSet) ViolatedEndpoints(m Mode, dst []EndpointID) []EndpointID {
	for e := range cs.g.endpoints {
		if cs.Slack(EndpointID(e), m) < -eps {
			dst = append(dst, EndpointID(e))
		}
	}
	return dst
}

// EdgeSlack evaluates a (normalized) sequential edge at the reference
// corner. Extraction expresses every late edge against T_ref, so this
// reproduces the edge's slack in its corner of origin — the invariant that
// keeps Eqs 9–14 corner-correct without the schedulers knowing corners
// exist.
func (cs *CornerSet) EdgeSlack(e SeqEdge) float64 {
	return cs.states[cs.ref].EdgeSlack(e)
}

// DOut returns the largest d^out over corners — the conservative choice for
// the Eq-8 safety subtraction.
func (cs *CornerSet) DOut(c netlist.CellID) float64 {
	worst := math.Inf(-1)
	for _, s := range cs.states {
		if v := s.DOut(c); v > worst {
			worst = v
		}
	}
	return worst
}

// BaseLatency returns the (corner-invariant) clock-network latency.
func (cs *CornerSet) BaseLatency(c netlist.CellID) float64 {
	return cs.states[cs.ref].BaseLatency(c)
}

// ExtraLatency returns the (corner-invariant) scheduled latency.
func (cs *CornerSet) ExtraLatency(c netlist.CellID) float64 {
	return cs.states[cs.ref].ExtraLatency(c)
}

// AddExtraLatency applies one latency increment to every corner, keeping
// the assignment corner-invariant.
func (cs *CornerSet) AddExtraLatency(c netlist.CellID, dl float64) {
	for _, s := range cs.states {
		s.AddExtraLatency(c, dl)
	}
}

// Update drains every corner's dirty set, one goroutine per corner (the
// states are independent over the immutable shared graph), and returns the
// total pin count. Corner order never affects results — each state's
// propagation is self-contained — so the sum is deterministic.
func (cs *CornerSet) Update() int {
	if len(cs.states) == 1 {
		return cs.states[0].Update()
	}
	pins := make([]int, len(cs.states))
	var wg sync.WaitGroup
	for i := range cs.states {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := cs.states[i]
			sp := s.rec.NamedSpan("corner:" + cs.names[i] + ":update")
			pins[i] = s.Update()
			sp.EndArg("pins", int64(pins[i]))
		}(i)
	}
	wg.Wait()
	total := 0
	for _, p := range pins {
		total += p
	}
	return total
}

// FullUpdate re-propagates every corner from scratch.
func (cs *CornerSet) FullUpdate() {
	for _, s := range cs.states {
		s.FullUpdate()
	}
}

// SetWorkers fans the worker-pool width out to every corner.
func (cs *CornerSet) SetWorkers(n int) {
	for _, s := range cs.states {
		s.SetWorkers(n)
	}
}

// Workers returns the configured worker-pool width.
func (cs *CornerSet) Workers() int { return cs.states[cs.ref].Workers() }

// SetCheck installs the cancellation probe on every corner.
func (cs *CornerSet) SetCheck(f func() bool) {
	for _, s := range cs.states {
		s.SetCheck(f)
	}
}

// Check returns the installed cancellation probe.
func (cs *CornerSet) Check() func() bool { return cs.states[cs.ref].Check() }

// SetRecorder fans an instrumentation recorder out to every corner, so each
// corner's update spans land on the same trace, labeled by corner name.
func (cs *CornerSet) SetRecorder(r *obs.Recorder) {
	for _, s := range cs.states {
		s.SetRecorder(r)
	}
}

// Recorder returns the reference corner's recorder.
func (cs *CornerSet) Recorder() *obs.Recorder { return cs.states[cs.ref].Recorder() }

// SetReq fans the service request ID out to every corner.
func (cs *CornerSet) SetReq(id string) {
	for _, s := range cs.states {
		s.SetReq(id)
	}
}

// ExtractEssentialBatch extracts each corner's essential edges and returns
// their normalized union (concatenated per corner; dedup is the sequential
// graph's job, exactly as for a single state).
func (cs *CornerSet) ExtractEssentialBatch(endpoints []EndpointID, m Mode, margin float64, workers int, dst []SeqEdge) []SeqEdge {
	return cs.extractUnion(dst, m, func(s *State, d []SeqEdge) []SeqEdge {
		return s.ExtractEssentialBatch(endpoints, m, margin, workers, d)
	})
}

// ExtractAllFrom extracts the full fanout of one launch in every corner.
func (cs *CornerSet) ExtractAllFrom(launch netlist.CellID, m Mode, dst []SeqEdge) []SeqEdge {
	return cs.extractUnion(dst, m, func(s *State, d []SeqEdge) []SeqEdge {
		return s.ExtractAllFrom(launch, m, d)
	})
}

// ExtractAllInto extracts the full fanin of one capture in every corner.
func (cs *CornerSet) ExtractAllInto(capture netlist.CellID, m Mode, dst []SeqEdge) []SeqEdge {
	return cs.extractUnion(dst, m, func(s *State, d []SeqEdge) []SeqEdge {
		return s.ExtractAllInto(capture, m, d)
	})
}

// ExtractAllFromBatch is the batch form of ExtractAllFrom.
func (cs *CornerSet) ExtractAllFromBatch(launches []netlist.CellID, m Mode, workers int, dst []SeqEdge) []SeqEdge {
	return cs.extractUnion(dst, m, func(s *State, d []SeqEdge) []SeqEdge {
		return s.ExtractAllFromBatch(launches, m, workers, d)
	})
}

// ExtractAllIntoBatch is the batch form of ExtractAllInto.
func (cs *CornerSet) ExtractAllIntoBatch(captures []netlist.CellID, m Mode, workers int, dst []SeqEdge) []SeqEdge {
	return cs.extractUnion(dst, m, func(s *State, d []SeqEdge) []SeqEdge {
		return s.ExtractAllIntoBatch(captures, m, workers, d)
	})
}

// extractUnion runs one extraction per corner in corner order, normalizes
// every late edge's delay to the reference period (Delay += T_ref − T_c, so
// the edge's EdgeSlack at the reference state equals its slack in corner c),
// and counts the call toward diffRounds when the corners' edge sets differ.
func (cs *CornerSet) extractUnion(dst []SeqEdge, m Mode, run func(s *State, dst []SeqEdge) []SeqEdge) []SeqEdge {
	refT := cs.states[cs.ref].period
	if cs.keys == nil {
		cs.keys = make(map[cornerEdgeKey]struct{})
	}
	clear(cs.keys)
	firstLen := 0
	differs := false
	for i, s := range cs.states {
		start := len(dst)
		dst = run(s, dst)
		if shift := refT - s.period; shift != 0 {
			for j := start; j < len(dst); j++ {
				if dst[j].Mode == Late {
					dst[j].Delay += shift
				}
			}
		}
		seg := dst[start:]
		if i == 0 {
			for _, e := range seg {
				cs.keys[cornerEdgeKey{e.Launch, e.Capture, e.Mode}] = struct{}{}
			}
			firstLen = len(cs.keys)
			continue
		}
		if differs {
			continue
		}
		if len(seg) != firstLen {
			differs = true
			continue
		}
		for _, e := range seg {
			if _, ok := cs.keys[cornerEdgeKey{e.Launch, e.Capture, e.Mode}]; !ok {
				differs = true
				break
			}
		}
	}
	if differs && len(cs.states) > 1 {
		cs.mu.Lock()
		cs.diffRounds++
		cs.mu.Unlock()
	}
	return dst
}
