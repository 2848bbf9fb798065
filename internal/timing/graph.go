package timing

import (
	"fmt"
	"math"

	"iterskew/internal/delay"
	"iterskew/internal/netlist"
)

// Graph is the immutable, compiled view of a design's timing structure:
// topology (which pins belong to the data graph), CSR forward/backward
// adjacency, topological levels and the level-major order, endpoint tables
// and the pristine analysis snapshot. It is built once by Compile and from
// then on only read — any number of States (and hence goroutines) may share
// one Graph concurrently, which is what makes the engine's compile-once /
// schedule-many model sound.
//
// The split mirrors the paper's premise (§III-B1): the compiled timing graph
// is static across a scheduling run; only latencies, arrivals and required
// times move. Cell moves and LCB–FF reconnection change delays and clock
// connectivity, never data connectivity, so the CSR arrays survive physical
// optimization too — but a Graph whose design has been mutated must not be
// used to create new States (the pristine snapshot below would be stale).
type Graph struct {
	D *netlist.Design
	M delay.Model

	// Static graph structure.
	inData []bool  // pin participates in the data timing graph
	level  []int32 // topological level of each data pin
	order  []netlist.PinID
	maxLvl int32

	// CSR adjacency (see csr.go).
	fwdOff []int32
	fwdArc []arcRef
	bwdOff []int32
	bwdArc []arcRef

	// Endpoint tables.
	endpoints  []Endpoint
	endpointOf []EndpointID // cell -> endpoint (-1 if none)
	ffIdx      []int32      // cell -> FF index (-1 if not a FF)

	// Pristine post-compile analysis snapshot: the result of a full update
	// at the design's period with zero extra latencies. NewState memcpys it
	// instead of re-propagating, making per-session setup a small constant
	// factor over the array allocations alone. snapDIn, the per-pin arc
	// delays, is not copied: states share it read-only until they change a
	// delay.
	snapAtMin, snapAtMax   []float64
	snapReqMin, snapReqMax []float64
	snapBaseLat            []float64
	snapDIn                []float64
	snapStats              Counters
}

// Compile builds the immutable timing graph of d under model m: pin
// classification, CSR adjacency, levelization, endpoint tables, plus the
// pristine analysis snapshot that makes NewState cheap. It returns an error
// if the data graph contains a combinational cycle, or if a bootstrap arc
// delay or clock latency is NaN or ±Inf, as a coordinate near the float64
// limit makes the wire model overflow.
func Compile(d *netlist.Design, m delay.Model) (*Graph, error) {
	g := &Graph{D: d, M: m}
	np := len(d.Pins)
	g.inData = make([]bool, np)
	g.level = make([]int32, np)

	g.ffIdx = make([]int32, len(d.Cells))
	g.endpointOf = make([]EndpointID, len(d.Cells))
	for i := range g.ffIdx {
		g.ffIdx[i] = -1
		g.endpointOf[i] = -1
	}
	for i, ff := range d.FFs {
		g.ffIdx[ff] = int32(i)
	}
	for _, ff := range d.FFs {
		g.endpointOf[ff] = EndpointID(len(g.endpoints))
		g.endpoints = append(g.endpoints, Endpoint{Pin: d.FFData(ff), Cell: ff})
	}
	for _, p := range d.OutPorts {
		g.endpointOf[p] = EndpointID(len(g.endpoints))
		g.endpoints = append(g.endpoints, Endpoint{Pin: d.Cells[p].Pins[0], Cell: p, IsPort: true})
	}

	g.classifyPins()
	g.buildCSR()
	if err := g.levelize(); err != nil {
		return nil, err
	}
	g.buildOrderBuckets()

	// Bootstrap analysis: run the one full update every timer historically
	// performed at construction, then keep its arrays as the snapshot.
	s := g.blankState()
	s.dIn, s.dInOwned = make([]float64, np), true
	s.FullUpdate()
	if err := s.nonFinite(); err != nil {
		return nil, err
	}
	g.snapAtMin, g.snapAtMax = s.atMin, s.atMax
	g.snapReqMin, g.snapReqMax = s.reqMin, s.reqMax
	g.snapBaseLat = s.baseLat
	g.snapDIn = s.dIn
	g.snapStats = s.Stats
	return g, nil
}

// nonFinite reports the first arc delay or clock latency of t that is NaN
// or ±Inf.
func (t *State) nonFinite() error {
	d := t.D
	for p, v := range t.dIn {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("timing: arc delay into pin %d of cell %q is %v", p, d.Cells[d.Pins[p].Cell].Name, v)
		}
	}
	for i, v := range t.baseLat {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("timing: clock latency of flip-flop %q is %v", d.Cells[d.FFs[i]].Name, v)
		}
	}
	return nil
}

// Design returns the design the graph was compiled from.
func (g *Graph) Design() *netlist.Design { return g.D }

// Model returns the delay model the graph was compiled under.
func (g *Graph) Model() delay.Model { return g.M }

// Endpoints returns the endpoint table (shared; do not modify).
func (g *Graph) Endpoints() []Endpoint { return g.endpoints }

// EndpointOf returns the endpoint of a flip-flop or output port.
func (g *Graph) EndpointOf(c netlist.CellID) EndpointID { return g.endpointOf[c] }

// classifyPins marks the pins that belong to the data timing graph (the
// per-pin rule lives in pinInData, which Recompile reuses to detect
// classification flips).
func (g *Graph) classifyPins() {
	for i := range g.D.Pins {
		g.inData[i] = g.pinInData(netlist.PinID(i))
	}
}

// levelize assigns topological levels to data pins (Kahn's algorithm over the
// CSR arrays) and reports combinational cycles.
func (g *Graph) levelize() error {
	np := len(g.D.Pins)
	indeg := make([]int32, np)
	total := 0
	for i := 0; i < np; i++ {
		if !g.inData[i] {
			g.level[i] = -1
			continue
		}
		total++
		indeg[i] = g.bwdOff[i+1] - g.bwdOff[i]
	}
	queue := make([]netlist.PinID, 0, total)
	for i := 0; i < np; i++ {
		if g.inData[i] && indeg[i] == 0 {
			queue = append(queue, netlist.PinID(i))
			g.level[i] = 0
		}
	}
	g.order = g.order[:0]
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		g.order = append(g.order, p)
		if g.level[p] > g.maxLvl {
			g.maxLvl = g.level[p]
		}
		for _, a := range g.fanoutArcs(p) {
			q := a.To
			if l := g.level[p] + 1; l > g.level[q] {
				g.level[q] = l
			}
			indeg[q]--
			if indeg[q] == 0 {
				queue = append(queue, q)
			}
		}
	}
	if len(g.order) != total {
		return fmt.Errorf("timing: combinational cycle detected (%d of %d pins levelized)", len(g.order), total)
	}
	return nil
}

// buildOrderBuckets canonicalizes the topological order into level-major,
// pin-index order, so each level's pins form one contiguous run of it. Every
// data arc strictly increases level, so the canonical order is a valid
// topological order; unlike the Kahn discovery order it depends only on the
// levels themselves, which is what lets Recompile reproduce a from-scratch
// Compile exactly after a localized edit.
func (g *Graph) buildOrderBuckets() {
	off := make([]int32, g.maxLvl+2)
	for _, p := range g.order {
		off[g.level[p]+1]++
	}
	for l := 0; l < len(off)-1; l++ {
		off[l+1] += off[l]
	}
	flat := make([]netlist.PinID, len(g.order))
	cur := make([]int32, g.maxLvl+1)
	copy(cur, off)
	for i := range g.D.Pins {
		if !g.inData[i] {
			continue
		}
		l := g.level[i]
		flat[cur[l]] = netlist.PinID(i)
		cur[l]++
	}
	g.order = flat
}

// blankState allocates a State over g with zeroed analysis arrays, no delay
// array, and the design-default period and derates. Callers must install a
// delay array and establish valid arrival and required times (a snapshot
// restore, or an owned array and FullUpdate) before analysis.
func (g *Graph) blankState() *State {
	d := g.D
	np := len(d.Pins)
	t := &State{Graph: g, period: d.Period}
	t.dEarly, t.dLate = normalizeDerates(g.M.DerateEarly, g.M.DerateLate)
	t.atMin = make([]float64, np)
	t.atMax = make([]float64, np)
	t.reqMin = make([]float64, np)
	t.reqMax = make([]float64, np)
	t.netSeen = make([]bool, len(d.Nets))
	t.inFwd = make([]bool, np)
	t.inBwd = make([]bool, np)
	t.cellDirtyMark = make([]bool, len(d.Cells))
	t.baseLat = make([]float64, len(d.FFs))
	t.extraLat = make([]float64, len(d.FFs))
	t.ffDirtyMark = make([]bool, len(d.FFs))
	t.fwdBuckets = make([][]netlist.PinID, g.maxLvl+1)
	t.bwdBuckets = make([][]netlist.PinID, g.maxLvl+1)
	return t
}

// NewState allocates a fresh mutable analysis state over the compiled graph,
// restored from the pristine snapshot — observably identical to the timer
// New returns, at a fraction of the cost (no CSR build, no levelization, no
// propagation; just allocation and copies). States over one Graph are
// independent: each may be driven from its own goroutine.
func (g *Graph) NewState() *State {
	t := g.blankState()
	t.restoreSnapshot()
	return t
}

// restoreSnapshot copies the pristine post-compile analysis into t and
// shares the snapshot's delay array, dropping any copy t made of it.
func (t *State) restoreSnapshot() {
	g := t.Graph
	copy(t.atMin, g.snapAtMin)
	copy(t.atMax, g.snapAtMax)
	copy(t.reqMin, g.snapReqMin)
	copy(t.reqMax, g.snapReqMax)
	copy(t.baseLat, g.snapBaseLat)
	t.dIn, t.dInOwned = g.snapDIn, false
	t.clkInOK = false
	t.Stats = g.snapStats
}

// Reset returns the state to the pristine post-compile analysis: zero extra
// latencies, the design's period and the model's derates, empty dirty
// queues. It closes an open checkpoint without rolling back. It is only
// valid while the design has not been mutated since Compile (the engine's
// job pool guarantees that); after physical optimization, build a fresh
// timer instead.
func (t *State) Reset() {
	t.undo.close()
	for i := range t.extraLat {
		t.extraLat[i] = 0
	}
	t.clearDirty()
	t.clearWorklists()
	t.doutValid = false
	t.period = t.D.Period
	t.dEarly, t.dLate = normalizeDerates(t.M.DerateEarly, t.M.DerateLate)
	t.restoreSnapshot()
}

// Period returns the clock period the state currently analyzes under. It
// starts at the design's period and moves only via SetPeriod.
func (t *State) Period() float64 { return t.period }

// SetPeriod retimes the state to a what-if clock period without touching the
// shared design. Arrival times are period-independent; required times are
// reseeded at every endpoint and drained incrementally at the next
// required-time read, which recomputes exactly the values a from-scratch
// update at that period would (each visited pin's required time is rebuilt
// from its fanout, not adjusted), so results are bit-identical to a fresh
// timer on a design with that period. It closes an open checkpoint, keeping
// its changes (as Commit does).
func (t *State) SetPeriod(p float64) {
	t.undo.close()
	if p == t.period {
		return
	}
	t.period = p
	for i := range t.endpoints {
		if pin := t.endpoints[i].Pin; t.inData[pin] {
			t.seedBwd(pin)
		}
	}
	t.Update()
}

// Derates returns the state's effective early and late analysis derates.
func (t *State) Derates() (early, late float64) { return t.dEarly, t.dLate }

// SetDerates installs what-if analysis-corner derates on the state (zero
// values normalize to 1, matching the model convention) and re-propagates.
// Like SetPeriod it leaves the shared design and model untouched, and it
// closes an open checkpoint, keeping its changes (as Commit does).
func (t *State) SetDerates(early, late float64) {
	t.undo.close()
	early, late = normalizeDerates(early, late)
	if early == t.dEarly && late == t.dLate {
		return
	}
	t.dEarly, t.dLate = early, late
	t.doutValid = false
	t.FullUpdate()
}

func normalizeDerates(early, late float64) (float64, float64) {
	if early == 0 {
		early = 1
	}
	if late == 0 {
		late = 1
	}
	return early, late
}
