package timing

import (
	"math"

	"iterskew/internal/netlist"
)

// SeqEdge is one extracted sequential edge: a timing path between two
// sequential elements (flip-flops or I/O ports).
//
// Delay is the clock-edge-to-endpoint path delay: for a flip-flop launch it
// includes the clk→Q delay; for an input-port launch it is the pure
// combinational delay. For Late edges Delay is the maximum path delay, for
// Early edges the minimum.
type SeqEdge struct {
	Launch  netlist.CellID // flip-flop or input port
	Capture netlist.CellID // flip-flop or output port
	Delay   float64
	Mode    Mode
}

// EdgeSlack evaluates the slack of a sequential edge under the timer's
// current latencies (Eqs 1–2 of the paper). This is the authoritative
// weight function for the sequential graph; re-evaluating it after a latency
// change realizes the incremental weight update of Eq (10).
func (t *State) EdgeSlack(e SeqEdge) float64 {
	d := t.D
	var lLaunch, lCapture, setup, hold float64
	if t.ffIdx[e.Launch] >= 0 {
		lLaunch = t.Latency(e.Launch)
	} else {
		lLaunch = d.PortLatency
	}
	if t.ffIdx[e.Capture] >= 0 {
		lCapture = t.Latency(e.Capture)
		ct := d.Cells[e.Capture].Type
		setup, hold = ct.Setup, ct.Hold
	} else {
		lCapture = d.PortLatency
		setup = d.OutDelay[e.Capture] // external setup margin (SDC-lite)
	}
	if e.Mode == Late {
		return lCapture + t.period - setup - (lLaunch + e.Delay)
	}
	return (lLaunch + e.Delay) - (lCapture + hold)
}

// traceState carries the version-stamped scratch space for path tracing so
// repeated extractions do not reallocate or clear per-pin arrays. Each batch
// worker owns one, so extraction traces can run concurrently without sharing.
//
// found* hold the per-trace best delay per terminal cell (launch or capture),
// stamped by the same epoch as the pin labels; foundList records discovery
// order so edge emission is deterministic (map iteration order is not).
type traceState struct {
	dd    []float64
	stamp []int32
	cur   int32
	stack []netlist.PinID

	foundVal   []float64
	foundStamp []int32
	foundList  []netlist.CellID
}

func (s *traceState) reset(np, nc int) {
	if len(s.dd) < np {
		s.dd = make([]float64, np)
		s.stamp = make([]int32, np)
	}
	if len(s.foundVal) < nc {
		s.foundVal = make([]float64, nc)
		s.foundStamp = make([]int32, nc)
	}
	s.cur++
	s.stack = s.stack[:0]
	s.foundList = s.foundList[:0]
}

func (s *traceState) get(p netlist.PinID, def float64) float64 {
	if s.stamp[p] != s.cur {
		return def
	}
	return s.dd[p]
}

func (s *traceState) set(p netlist.PinID, v float64) {
	s.stamp[p] = s.cur
	s.dd[p] = v
}

// note records v for terminal cell c, keeping the max in Late mode and the
// min in Early mode across repeated visits.
func (s *traceState) note(c netlist.CellID, v float64, late bool) {
	if s.foundStamp[c] != s.cur {
		s.foundStamp[c] = s.cur
		s.foundVal[c] = v
		s.foundList = append(s.foundList, c)
		return
	}
	if late {
		if v > s.foundVal[c] {
			s.foundVal[c] = v
		}
	} else if v < s.foundVal[c] {
		s.foundVal[c] = v
	}
}

// ExtractEssentialAt performs the paper's essential-edge extraction (§III-B1)
// for one violated endpoint: a pruned backward trace over the gate-level
// timing graph from the endpoint's data pin that yields exactly the
// sequential edges whose slack is below margin (0 ⇒ the violating edges).
//
// The trace is label-correcting on the maximum (Late) or minimum (Early)
// downstream delay and prunes any prefix whose best achievable arrival
// cannot violate, so its cost is proportional to the violating cone, not the
// full fanin cone.
func (t *State) ExtractEssentialAt(e EndpointID, m Mode, margin float64, dst []SeqEdge) []SeqEdge {
	return t.extractEssential(&t.trace, &t.Stats, e, m, margin, dst)
}

// extractEssential is the reentrant core of ExtractEssentialAt: all mutable
// state lives in st and cnt, so batch workers run it concurrently against
// read-only timer state.
func (t *State) extractEssential(st *traceState, cnt *Counters, e EndpointID, m Mode, margin float64, dst []SeqEdge) []SeqEdge {
	ep := t.endpoints[e]
	p0 := ep.Pin
	if !t.inData[p0] {
		return dst
	}
	rl, re, _ := t.endpointRequired(p0)
	late := m == Late
	var limit float64
	if late {
		limit = rl - margin // violation ⇔ arrival > limit
		if math.IsInf(t.atMax[p0], -1) || t.atMax[p0] <= limit+eps {
			return dst
		}
	} else {
		limit = re + margin // violation ⇔ arrival < limit
		if math.IsInf(t.atMin[p0], 1) || t.atMin[p0] >= limit-eps {
			return dst
		}
	}

	der := t.dLate
	if m == Early {
		der = t.dEarly
	}

	st.reset(len(t.D.Pins), len(t.D.Cells))
	st.set(p0, 0)
	st.stack = append(st.stack, p0)

	for len(st.stack) > 0 {
		p := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		dd := st.get(p, 0)
		arcs := t.faninArcs(p)
		if len(arcs) == 0 {
			if _, _, isSrc := t.sourceArrival(p); isSrc {
				if late {
					st.note(t.D.Pins[p].Cell, t.atMax[p]+dd, true)
				} else {
					st.note(t.D.Pins[p].Cell, t.atMin[p]+dd, false)
				}
			}
			continue
		}
		cnt.ExtractArcVisits += int64(len(arcs))
		ad := t.dIn[p] * der // shared by every fanin arc
		for _, a := range arcs {
			q := a.To
			nd := dd + ad
			if late {
				if math.IsInf(t.atMax[q], -1) || t.atMax[q]+nd <= limit+eps {
					continue // cannot complete into a violation
				}
				if cur := st.get(q, math.Inf(-1)); nd <= cur {
					continue // dominated
				}
			} else {
				if math.IsInf(t.atMin[q], 1) || t.atMin[q]+nd >= limit-eps {
					continue
				}
				if cur := st.get(q, math.Inf(1)); nd >= cur {
					continue
				}
			}
			st.set(q, nd)
			st.stack = append(st.stack, q)
		}
	}

	for _, launch := range st.foundList {
		// arrival = launch latency + Delay; Delay excludes the latency
		// (ports launch at the virtual clock's PortLatency).
		var lat float64
		if t.ffIdx[launch] >= 0 {
			lat = t.Latency(launch)
		} else {
			lat = t.D.PortLatency
		}
		dst = append(dst, SeqEdge{Launch: launch, Capture: ep.Cell, Delay: st.foundVal[launch] - lat, Mode: m})
	}
	cnt.ExtractedEdges += int64(len(st.foundList))
	return dst
}

// ExtractAllFrom extracts every outgoing sequential edge of a launch vertex
// (flip-flop or input port) by a full forward traversal of its fanout cone —
// the IC-CSS callback of [9]. All reachable endpoints are reported,
// violating or not.
func (t *State) ExtractAllFrom(launch netlist.CellID, m Mode, dst []SeqEdge) []SeqEdge {
	return t.extractAllFrom(&t.trace, &t.Stats, launch, m, dst)
}

func (t *State) extractAllFrom(st *traceState, cnt *Counters, launch netlist.CellID, m Mode, dst []SeqEdge) []SeqEdge {
	var src netlist.PinID
	if t.ffIdx[launch] >= 0 {
		src = t.D.FFQ(launch)
	} else {
		src = t.D.OutPin(launch)
	}
	if !t.inData[src] {
		return dst
	}

	late := m == Late
	der := t.dLate
	def := math.Inf(1)
	if late {
		def = math.Inf(-1)
	} else {
		der = t.dEarly
	}

	st.reset(len(t.D.Pins), len(t.D.Cells))
	st.set(src, 0)
	st.stack = append(st.stack, src)

	for len(st.stack) > 0 {
		p := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		dd := st.get(p, 0)
		arcs := t.fanoutArcs(p)
		if len(arcs) == 0 {
			if _, _, isEnd := t.endpointRequired(p); isEnd {
				st.note(t.D.Pins[p].Cell, dd, late)
			}
			continue
		}
		cnt.ExtractArcVisits += int64(len(arcs))
		for _, a := range arcs {
			q := a.To
			nd := dd + t.dIn[q]*der
			if late {
				if cur := st.get(q, def); nd <= cur {
					continue
				}
			} else {
				if cur := st.get(q, def); nd >= cur {
					continue
				}
			}
			st.set(q, nd)
			st.stack = append(st.stack, q)
		}
	}

	ld := t.launchDelay(launch, m)
	for _, capture := range st.foundList {
		dst = append(dst, SeqEdge{Launch: launch, Capture: capture, Delay: ld + st.foundVal[capture], Mode: m})
	}
	cnt.ExtractedEdges += int64(len(st.foundList))
	return dst
}

// launchDelay returns the latency-independent, corner-derated launch delay
// of a vertex: the source arrival at its output pin minus its clock latency
// (PortLatency for ports).
func (t *State) launchDelay(launch netlist.CellID, m Mode) float64 {
	var src netlist.PinID
	var lat float64
	if t.ffIdx[launch] >= 0 {
		src = t.D.FFQ(launch)
		lat = t.Latency(launch)
	} else {
		src = t.D.OutPin(launch)
		lat = t.D.PortLatency
	}
	atE, atL, _ := t.sourceArrival(src)
	if m == Early {
		return atE - lat
	}
	return atL - lat
}

// ExtractAllInto extracts every incoming sequential edge of a capture vertex
// by a full (unpruned) backward traversal — the latency-constraint edge
// extraction of IC-CSS+ (§III-E ii).
func (t *State) ExtractAllInto(capture netlist.CellID, m Mode, dst []SeqEdge) []SeqEdge {
	return t.extractAllInto(&t.trace, &t.Stats, capture, m, dst)
}

func (t *State) extractAllInto(st *traceState, cnt *Counters, capture netlist.CellID, m Mode, dst []SeqEdge) []SeqEdge {
	e := t.endpointOf[capture]
	if e == NoEndpoint {
		return dst
	}
	p0 := t.endpoints[e].Pin
	if !t.inData[p0] {
		return dst
	}

	late := m == Late
	der := t.dLate
	def := math.Inf(1)
	if late {
		def = math.Inf(-1)
	} else {
		der = t.dEarly
	}

	st.reset(len(t.D.Pins), len(t.D.Cells))
	st.set(p0, 0)
	st.stack = append(st.stack, p0)

	for len(st.stack) > 0 {
		p := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		dd := st.get(p, 0)
		arcs := t.faninArcs(p)
		if len(arcs) == 0 {
			if _, _, isSrc := t.sourceArrival(p); isSrc {
				st.note(t.D.Pins[p].Cell, dd, late)
			}
			continue
		}
		cnt.ExtractArcVisits += int64(len(arcs))
		ad := t.dIn[p] * der
		for _, a := range arcs {
			q := a.To
			nd := dd + ad
			if late {
				if cur := st.get(q, def); nd <= cur {
					continue
				}
			} else {
				if cur := st.get(q, def); nd >= cur {
					continue
				}
			}
			st.set(q, nd)
			st.stack = append(st.stack, q)
		}
	}

	for _, launch := range st.foundList {
		dst = append(dst, SeqEdge{Launch: launch, Capture: capture, Delay: t.launchDelay(launch, m) + st.foundVal[launch], Mode: m})
	}
	cnt.ExtractedEdges += int64(len(st.foundList))
	return dst
}

// DOut returns the maximum outgoing path delay of a launch vertex (clk→Q
// plus the longest combinational path from its output to any endpoint) — the
// d^out quantity IC-CSS precomputes once (Eq 8). Vertices with no outgoing
// paths report -Inf.
func (t *State) DOut(launch netlist.CellID) float64 {
	if !t.doutValid {
		t.computeDOut()
	}
	var src netlist.PinID
	if t.ffIdx[launch] >= 0 {
		src = t.D.FFQ(launch)
	} else {
		src = t.D.OutPin(launch)
	}
	if !t.inData[src] || math.IsInf(t.dout[src], -1) {
		return math.Inf(-1)
	}
	return t.launchDelay(launch, Late) + t.dout[src]
}

// computeDOut fills t.dout with the maximum delay from each pin to any
// endpoint, in one reverse-topological pass over the CSR fanout arrays.
func (t *State) computeDOut() {
	np := len(t.D.Pins)
	if len(t.dout) < np {
		t.dout = make([]float64, np)
	}
	for i := range t.dout {
		t.dout[i] = math.Inf(-1)
	}
	for i := len(t.order) - 1; i >= 0; i-- {
		p := t.order[i]
		arcs := t.fanoutArcs(p)
		if len(arcs) == 0 {
			if _, _, isEnd := t.endpointRequired(p); isEnd {
				t.dout[p] = 0
				continue
			}
		}
		best := math.Inf(-1)
		for _, a := range arcs {
			if v := t.dout[a.To] + t.dIn[a.To]*t.dLate; v > best {
				best = v
			}
		}
		t.dout[p] = best
	}
	t.doutValid = true
}

// InvalidateDOut drops the cached d^out table (call after delays change if a
// fresh table is required; IC-CSS deliberately computes it only once).
func (t *State) InvalidateDOut() { t.doutValid = false }

// WorstPath returns the pins of the endpoint's worst path in the given mode,
// ordered from the launch pin to the endpoint pin. It follows the arrival
// arithmetic backwards: at each pin it steps to the fanin that realizes the
// pin's extreme arrival. Returns nil if the endpoint has no arriving path.
func (t *State) WorstPath(e EndpointID, m Mode) []netlist.PinID {
	p := t.endpoints[e].Pin
	if !t.inData[p] {
		return nil
	}
	if m == Late && math.IsInf(t.atMax[p], -1) {
		return nil
	}
	if m == Early && math.IsInf(t.atMin[p], 1) {
		return nil
	}
	der := t.dLate
	if m == Early {
		der = t.dEarly
	}
	var rev []netlist.PinID
	for {
		rev = append(rev, p)
		best := netlist.NoPin
		bestErr := math.Inf(1)
		target := t.atMax[p]
		if m == Early {
			target = t.atMin[p]
		}
		d := t.dIn[p] // shared by every fanin arc
		for _, a := range t.faninArcs(p) {
			q := a.To
			var at float64
			if m == Late {
				at = t.atMax[q]
			} else {
				at = t.atMin[q]
			}
			if err := math.Abs(at + d*der - target); err < bestErr {
				bestErr = err
				best = q
			}
		}
		if best == netlist.NoPin || len(rev) > len(t.D.Pins) {
			break // a source (it has no fanin), or a disconnected or inconsistent state
		}
		p = best
	}
	// Reverse to launch→endpoint order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
