// Package timing is the static timing analysis (STA) engine — the "timer"
// that the paper's algorithms drive. It provides:
//
//   - levelized min/max arrival-time propagation over the gate-level timing
//     graph (pins are vertices; cell arcs and net arcs are edges);
//   - backward required-time propagation, giving per-flip-flop launch-side
//     slack bounds (the ŝ^L of §III-C1) in addition to the endpoint-side
//     early/late slacks;
//   - incremental propagation: changing the clock latency of a set of
//     flip-flops re-times only their fanout cones at Update, and their fanin
//     cones' required times at the next launch-slack read;
//   - clock-network evaluation (root → LCB → FF) so that LCB–FF reconnection
//     physically changes flip-flop latencies, and a clock-only retime with a
//     launch→capture model (launch.go) on which a reconnection pass decides
//     its trials without propagating arrivals per trial;
//   - sequential-edge extraction primitives: backward tracing of violating
//     paths from an endpoint (essential edges only, §III-B1) and forward
//     per-source extraction of all outgoing edges (the IC-CSS callback);
//   - instrumentation counters (pins visited, arcs traversed, edges
//     extracted) used by the experiment harnesses.
//
// Times are picoseconds throughout.
package timing

import (
	"math"
	"slices"

	"iterskew/internal/delay"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
)

// Mode selects the analysis corner: Late corresponds to setup/max-delay
// analysis, Early to hold/min-delay analysis.
type Mode uint8

// Analysis modes.
const (
	Late Mode = iota
	Early
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Early {
		return "early"
	}
	return "late"
}

// EndpointID indexes the graph's endpoint table.
type EndpointID int32

// NoEndpoint is returned when a cell has no timing endpoint.
const NoEndpoint EndpointID = -1

// Endpoint is a timing check location: a flip-flop D pin or a primary
// output.
type Endpoint struct {
	Pin    netlist.PinID
	Cell   netlist.CellID
	IsPort bool
}

// Counters instruments the timer for the experiments. All values are
// cumulative; use Reset or snapshot-and-subtract for per-phase accounting.
type Counters struct {
	ForwardPinVisits  int64 // pins re-evaluated during forward propagation
	BackwardPinVisits int64 // pins re-evaluated during backward propagation
	FullUpdates       int64
	IncrementalSeeds  int64
	ExtractedEdges    int64 // sequential edges returned by extraction calls
	ExtractArcVisits  int64 // timing-graph arcs touched during extraction
}

const eps = 1e-9

// State is the mutable half of a timer: arrival/required times, clock
// latencies, the per-pin arc delays, dirty queues and all per-session
// scratch, layered over an immutable compiled *Graph (embedded, so graph
// topology and tables read naturally as t.level, t.fwdArc, ...). Many States
// may share one Graph concurrently; a State itself is single-threaded, and
// only its batch extractors fan work out, to a pool sized per call.
type State struct {
	*Graph

	// Effective analysis parameters. They start from the design/model values
	// at NewState and move only via SetPeriod/SetDerates, enabling what-if
	// sessions over the shared graph.
	period        float64
	dEarly, dLate float64 // analysis-corner derates (1.0 when unset)

	// Per-pin arc delays (see csr.go): dIn[p] is the delay of every data
	// arc entering p, or a source's load-dependent launch delay. It starts
	// as the graph's snapshot, shared read-only until the state's first
	// changed entry copies it (dInOwned); setDIn is its one writer.
	dIn      []float64
	dInOwned bool

	// Arrival and required times, indexed by pin.
	atMin, atMax   []float64
	reqMin, reqMax []float64 // reqMax: late required; reqMin: early required

	// Clock latencies.
	baseLat  []float64 // from the physical clock network, per FF index
	extraLat []float64 // predictive CSS latency, per FF index

	// Pending-change queues for incremental propagation: index lists guarded
	// by in-queue bitsets, so repeated SetExtraLatency/DirtyCell calls stay
	// allocation-free and Update drains them in deterministic append order.
	dirtyFFList   []netlist.CellID
	ffDirtyMark   []bool // indexed by cell
	dirtyCellList []netlist.CellID
	cellDirtyMark []bool // indexed by cell
	netSeen       []bool // structural-update net dedup scratch
	netSeenList   []netlist.NetID
	clkChanged    []netlist.CellID // recomputeClock result scratch

	fwdBuckets [][]netlist.PinID
	bwdBuckets [][]netlist.PinID
	inFwd      []bool
	inBwd      []bool
	// reqStale reports backward seeds queued since the last drain: the
	// required times settle at the next LaunchLateSlack/LaunchEarlySlack.
	reqStale bool

	// Extraction scratch state.
	trace     traceState
	early     earlyLabels // ExtractAllIntoBoth's early labels
	dout      []float64
	doutValid bool

	pool extractPool // batch-extraction worker scratch (batch.go)

	// Cooperative-stop hook (see SetCheck). nil means never stop.
	check func() bool

	// Optional instrumentation recorder (nil by default: every hook below
	// degrades to a nil check, keeping the hot paths allocation-free).
	rec *obs.Recorder
	// Request ID stamped onto this state's timer spans (SetReq); the engine
	// sets it from the job context so a service request's trace spans are
	// attributable end to end.
	req string

	Stats Counters

	// Clock-input cache: the CTS-balanced LCB-input arrival the base
	// latencies were last timed with (valid when clkInOK). While it holds,
	// a structural Update re-times only the LCBs whose output net is dirty.
	clkIn   float64
	clkInOK bool

	// Trial undo log (undo.go); records only while a checkpoint is open.
	undo undoLog
}

// New builds a timer over d using model m: it compiles the graph and returns
// a fresh state, equivalent to Compile followed by NewState. It returns an
// error if the data graph contains a combinational cycle. Callers creating
// many sessions over one design should Compile once and call NewState per
// session instead.
func New(d *netlist.Design, m delay.Model) (*State, error) {
	g, err := Compile(d, m)
	if err != nil {
		return nil, err
	}
	return g.NewState(), nil
}

// setDIn is the one writer of the delay array. It leaves an unchanged entry
// alone, so a state whose delays never move keeps sharing the snapshot; the
// first changed entry copies it, and an open checkpoint logs the old value.
func (t *State) setDIn(p netlist.PinID, v float64) {
	if math.Float64bits(t.dIn[p]) == math.Float64bits(v) {
		return
	}
	if !t.dInOwned {
		t.dIn = slices.Clone(t.dIn)
		t.dInOwned = true
	}
	t.logDIn(p)
	t.dIn[p] = v
}

// refreshNet re-derives the delays a data net carries: every sink's wire
// delay and the driver's delay under the summed load, in one pass that
// repeats delay.Model's NetLoad and SinkWireDelay arithmetic term for term.
// Clock nets are skipped: the clock-network code times them itself.
func (t *State) refreshNet(n netlist.NetID) {
	d := t.D
	net := &d.Nets[n]
	if net.IsClock {
		return
	}
	if net.Driver == netlist.NoPin {
		for _, s := range net.Sinks {
			t.setDIn(s, 0)
		}
		return
	}
	dp := d.PinPos(net.Driver)
	var load float64
	for _, s := range net.Sinks {
		pin := &d.Pins[s]
		dist := dp.Manhattan(d.Cells[pin.Cell].Pos)
		load += pin.Cap + t.M.WireCap(dist)
		t.setDIn(s, t.M.WireDelay(dist, pin.Cap))
	}
	t.setDriverDelay(net.Driver, load)
}

// refreshOffNet re-derives the entry of a pin on no net: a driver's delay at
// load 0, or 0 for an input pin, which has no wire fanin.
func (t *State) refreshOffNet(p netlist.PinID) {
	if t.D.Pins[p].Dir == netlist.DirOut {
		t.setDriverDelay(p, 0)
	} else {
		t.setDIn(p, 0)
	}
}

// setDriverDelay stores the delay of output pin p under load: a
// combinational cell's arc delay, a flip-flop's clk→Q plus its drive, or an
// input port's drive. Other drivers (LCBs, the clock root) carry no data
// arc.
func (t *State) setDriverDelay(p netlist.PinID, load float64) {
	typ := t.D.Cells[t.D.Pins[p].Cell].Type
	switch typ.Kind {
	case netlist.KindComb:
		t.setDIn(p, t.M.CellDelay(typ, load))
	case netlist.KindFF:
		t.setDIn(p, typ.ClkToQ+typ.DriveRes*load)
	case netlist.KindPortIn:
		t.setDIn(p, typ.DriveRes*load)
	}
}

// SetCheck installs an amortized cooperative-stop hook (nil uninstalls).
// While installed, long-running timer work probes it at coarse boundaries —
// between level buckets during incremental Update and per trace root during
// batch extraction — and returns early when it reports true. The hook must
// be cheap and safe for concurrent calls (batch-extraction workers probe it
// from their own goroutines); a context.Context's Err check qualifies.
//
// An aborted Update leaves the un-drained seeds queued in a resumable state:
// clearing the hook and calling Update again completes propagation to
// exactly the fixpoint an uninterrupted Update would have reached (the
// worklist recomputes each pin from its fan-in, so the path taken does not
// change the result). Aborted extraction batches return the edges traced so
// far. The required-time drain at a launch-slack read never probes the
// hook, so a read always returns settled values. With no hook installed the
// probes cost a nil check and behavior is unchanged.
func (t *State) SetCheck(f func() bool) { t.check = f }

// Check returns the installed cooperative-stop hook (nil if none), so
// callers can save and restore it around a nested use.
func (t *State) Check() func() bool { return t.check }

// stopRequested probes the cooperative-stop hook.
func (t *State) stopRequested() bool { return t.check != nil && t.check() }

// SetRecorder installs an instrumentation recorder on the timer (nil
// uninstalls). With no recorder the instrumented paths cost a nil check and
// allocate nothing.
func (t *State) SetRecorder(r *obs.Recorder) { t.rec = r }

// Recorder returns the installed instrumentation recorder (nil if none).
func (t *State) Recorder() *obs.Recorder { return t.rec }

// SetReq tags this state's subsequently recorded timer spans (Update,
// FullUpdate, batch extraction) with a request ID, so a service job's trace
// is attributable to the request that ran it ("" untags). The engine sets
// it from the job's context and clears it when the state is recycled.
func (t *State) SetReq(id string) { t.req = id }

// Req returns the request ID the state's spans are tagged with ("" if none).
func (t *State) Req() string { return t.req }

// Latency returns the current effective clock latency of a flip-flop: the
// physical clock-network arrival plus any predictive CSS latency.
func (t *State) Latency(ff netlist.CellID) float64 {
	i := t.ffIdx[ff]
	return t.baseLat[i] + t.extraLat[i]
}

// BaseLatency returns the physical clock-network arrival at the flip-flop's
// CK pin.
func (t *State) BaseLatency(ff netlist.CellID) float64 { return t.baseLat[t.ffIdx[ff]] }

// ExtraLatency returns the predictive CSS latency of a flip-flop.
func (t *State) ExtraLatency(ff netlist.CellID) float64 { return t.extraLat[t.ffIdx[ff]] }

// SetExtraLatency sets the predictive CSS latency of a flip-flop. The change
// takes effect at the next Update call.
func (t *State) SetExtraLatency(ff netlist.CellID, l float64) {
	i := t.ffIdx[ff]
	if t.extraLat[i] == l {
		return
	}
	t.logLat(i)
	t.extraLat[i] = l
	t.markFFDirty(ff)
}

// AddExtraLatency increments the predictive CSS latency of a flip-flop.
func (t *State) AddExtraLatency(ff netlist.CellID, dl float64) {
	if dl == 0 {
		return
	}
	i := t.ffIdx[ff]
	t.logLat(i)
	t.extraLat[i] += dl
	t.markFFDirty(ff)
}

func (t *State) markFFDirty(ff netlist.CellID) {
	if !t.ffDirtyMark[ff] {
		t.ffDirtyMark[ff] = true
		t.dirtyFFList = append(t.dirtyFFList, ff)
	}
}

// DirtyCell informs the timer that a cell was moved, resized or reconnected;
// delays of its incident nets are re-derived at the next Update. A clock-pin
// reconnection changes the load of both LCBs involved: dirty the flip-flop
// and both LCBs, since Update re-times only the LCBs whose output net is
// dirty.
func (t *State) DirtyCell(c netlist.CellID) {
	if !t.cellDirtyMark[c] {
		t.cellDirtyMark[c] = true
		t.dirtyCellList = append(t.dirtyCellList, c)
	}
}

// clearDirty resets both pending-change queues.
func (t *State) clearDirty() {
	for _, ff := range t.dirtyFFList {
		t.ffDirtyMark[ff] = false
	}
	t.dirtyFFList = t.dirtyFFList[:0]
	for _, c := range t.dirtyCellList {
		t.cellDirtyMark[c] = false
	}
	t.dirtyCellList = t.dirtyCellList[:0]
}

// clearWorklists empties the propagation buckets: the forward ones hold pins
// only after an Update aborted by the SetCheck hook, the backward ones the
// seeds no required-time read has drained yet.
func (t *State) clearWorklists() {
	t.clearForward()
	t.truncateBackward(nil, false)
}

// clearForward empties the forward buckets.
func (t *State) clearForward() {
	for lvl, bucket := range t.fwdBuckets {
		for _, p := range bucket {
			t.inFwd[p] = false
		}
		t.fwdBuckets[lvl] = bucket[:0]
	}
}

// truncateBackward cuts every backward bucket back to its length in lens
// (to empty when lens is nil), unqueueing the pins it drops, and sets
// reqStale to stale, which the caller knows to match the lengths.
func (t *State) truncateBackward(lens []int32, stale bool) {
	t.reqStale = stale
	for lvl, bucket := range t.bwdBuckets {
		n := 0
		if lens != nil {
			n = int(lens[lvl])
		}
		for _, p := range bucket[n:] {
			t.inBwd[p] = false
		}
		t.bwdBuckets[lvl] = bucket[:n]
	}
}

// recomputeClock evaluates the physical clock network and returns the FFs
// whose base latency moved by more than eps. With all set it re-times every
// LCB. Otherwise it re-times only the LCBs driving a net in netSeenList (the
// current Update's dirty nets), unless the LCB-input arrival differs from
// the cached one, which moves every LCB. That is exact under DirtyCell's
// contract: an LCB with an unchanged input arrival and an unchanged output
// net recomputes the same latencies, which the eps gate leaves alone.
func (t *State) recomputeClock(all bool) []netlist.CellID {
	d := t.D
	changed := t.clkChanged[:0]
	if d.ClockRoot == netlist.NoCell {
		return nil
	}
	rootOut := d.OutPin(d.ClockRoot)
	rootNet := d.Pins[rootOut].Net
	if rootNet == netlist.NoNet {
		return nil
	}
	rootDelay := t.M.CellDelay(d.Cells[d.ClockRoot].Type, t.M.NetLoad(d, rootNet))
	// The root→LCB level is CTS-balanced: every LCB input sees the arrival
	// of the farthest branch (an idealized H-tree), so LCB-input skew is
	// zero and all useful skew comes from LCB loads and output branches.
	balanced := 0.0
	for _, s := range d.Nets[rootNet].Sinks {
		if w := t.M.SinkWireDelay(d, rootNet, s); w > balanced {
			balanced = w
		}
	}
	atIn := rootDelay + balanced
	if !t.clkInOK || math.Float64bits(atIn) != math.Float64bits(t.clkIn) {
		all = true
		t.clkIn, t.clkInOK = atIn, true
	}
	if all {
		for _, lcb := range d.LCBs {
			changed = t.retimeLCB(lcb, rootNet, changed)
		}
	} else {
		for _, n := range t.netSeenList {
			drv := d.Nets[n].Driver
			if drv == netlist.NoPin {
				continue
			}
			if c := d.Pins[drv].Cell; d.Cells[c].Type.Kind == netlist.KindLCB {
				changed = t.retimeLCB(c, rootNet, changed)
			}
		}
	}
	t.clkChanged = changed[:0]
	return changed
}

// retimeLCB re-times the flip-flops on one LCB's output net from the cached
// LCB-input arrival, appending those whose base latency moved to changed.
func (t *State) retimeLCB(lcb netlist.CellID, rootNet netlist.NetID, changed []netlist.CellID) []netlist.CellID {
	d := t.D
	if d.Pins[d.LCBIn(lcb)].Net != rootNet {
		return changed
	}
	outNet := d.Pins[d.LCBOut(lcb)].Net
	if outNet == netlist.NoNet {
		return changed
	}
	atOut := t.clkIn + t.M.CellDelay(d.Cells[lcb].Type, t.M.NetLoad(d, outNet))
	for _, ck := range d.Nets[outNet].Sinks {
		ff := d.Pins[ck].Cell
		fi := t.ffIdx[ff]
		if fi < 0 {
			continue
		}
		lat := atOut + t.M.SinkWireDelay(d, outNet, ck)
		// Written as "not within eps" so that a NaN latency is stored too,
		// where Compile's finiteness check sees it.
		if !(math.Abs(lat-t.baseLat[fi]) <= eps) {
			t.logLat(fi)
			t.baseLat[fi] = lat
			changed = append(changed, ff)
		}
	}
	return changed
}

// FullUpdate recomputes the clock network, every arc delay, and all arrival
// and required times from scratch, discarding the queued seeds. It closes
// an open checkpoint, keeping its changes (as Commit does).
func (t *State) FullUpdate() {
	sp := t.rec.StartSpan(obs.SpanTimerFullUpdate).WithReq(t.req)
	t.rec.Add(obs.CtrTimerFullUpdates, 1)
	t.Stats.FullUpdates++
	t.undo.close()
	t.clearWorklists()
	for n := range t.D.Nets {
		t.refreshNet(netlist.NetID(n))
	}
	for p := range t.D.Pins {
		if t.D.Pins[p].Net == netlist.NoNet {
			t.refreshOffNet(netlist.PinID(p))
		}
	}
	t.recomputeClock(true)
	t.clearDirty()

	for i := range t.atMax {
		t.atMax[i] = math.Inf(-1)
		t.atMin[i] = math.Inf(1)
		t.reqMax[i] = math.Inf(1)
		t.reqMin[i] = math.Inf(-1)
	}
	for _, p := range t.order {
		t.evalArrival(p)
		t.Stats.ForwardPinVisits++
	}
	for i := len(t.order) - 1; i >= 0; i-- {
		t.evalRequired(t.order[i])
		t.Stats.BackwardPinVisits++
	}
	sp.EndArg("pins", int64(2*len(t.order)))
}

// sourceArrival returns the early and late launch arrivals for source pins,
// and whether p is a source. The launch delay is load-dependent — clk→Q
// (for flip-flops) plus the driver's resistance times the output net load,
// cached in dIn — and derated per analysis corner; clock latencies are not
// derated (ideal common clock, no CPPR needed).
func (t *State) sourceArrival(p netlist.PinID) (early, late float64, ok bool) {
	d := t.D
	c := d.Pins[p].Cell
	var lat float64
	switch cell := &d.Cells[c]; cell.Type.Kind {
	case netlist.KindFF:
		if cell.Pins[netlist.FFPinQ] != p {
			return 0, 0, false
		}
		lat = t.Latency(c)
	case netlist.KindPortIn:
		lat = d.PortLatency + d.InDelay[c]
	default:
		return 0, 0, false
	}
	base := t.dIn[p]
	return lat + base*t.dEarly, lat + base*t.dLate, true
}

// evalArrival recomputes atMin/atMax of p from its fanin; it reports whether
// either value changed.
func (t *State) evalArrival(p netlist.PinID) bool {
	arcs := t.faninArcs(p)
	if len(arcs) == 0 {
		// Only a pin without fanin can be a source.
		if srcE, srcL, ok := t.sourceArrival(p); ok {
			changed := math.Abs(t.atMax[p]-srcL) > eps || math.Abs(t.atMin[p]-srcE) > eps
			t.atMax[p] = srcL
			t.atMin[p] = srcE
			return changed
		}
	}
	mx, mn := math.Inf(-1), math.Inf(1)
	d := t.dIn[p] // shared by every fanin arc
	dl, de := d*t.dLate, d*t.dEarly
	for _, a := range arcs {
		if v := t.atMax[a.To] + dl; v > mx {
			mx = v
		}
		if v := t.atMin[a.To] + de; v < mn {
			mn = v
		}
	}
	changed := !feq(t.atMax[p], mx) || !feq(t.atMin[p], mn)
	t.atMax[p] = mx
	t.atMin[p] = mn
	return changed
}

// endpointRequired returns the (late, early) required times for endpoint
// pins, and whether p is an endpoint pin.
func (t *State) endpointRequired(p netlist.PinID) (reqLate, reqEarly float64, ok bool) {
	d := t.D
	pin := &d.Pins[p]
	cell := &d.Cells[pin.Cell]
	switch cell.Type.Kind {
	case netlist.KindFF:
		if cell.Pins[netlist.FFPinD] == p {
			rl, re := t.ffRequired(cell.Type, t.Latency(pin.Cell))
			return rl, re, true
		}
	case netlist.KindPortOut:
		rl, re := t.portRequired(pin.Cell)
		return rl, re, true
	}
	return 0, 0, false
}

// ffRequired returns a flip-flop D pin's (late, early) required times under
// capture latency l.
func (t *State) ffRequired(typ *netlist.CellType, l float64) (reqLate, reqEarly float64) {
	return l + t.period - typ.Setup, l + typ.Hold
}

// portRequired returns an output port's (late, early) required times.
func (t *State) portRequired(port netlist.CellID) (reqLate, reqEarly float64) {
	return t.D.PortLatency + t.period - t.D.OutDelay[port], t.D.PortLatency
}

// evalRequired recomputes reqMax/reqMin of p from its fanout; it reports
// whether either value changed.
func (t *State) evalRequired(p netlist.PinID) bool {
	arcs := t.fanoutArcs(p)
	if len(arcs) == 0 {
		// Only a pin without fanout can be an endpoint.
		if rl, re, ok := t.endpointRequired(p); ok {
			changed := !feq(t.reqMax[p], rl) || !feq(t.reqMin[p], re)
			t.reqMax[p] = rl
			t.reqMin[p] = re
			return changed
		}
	}
	rl, re := math.Inf(1), math.Inf(-1)
	for _, a := range arcs {
		d := t.dIn[a.To]
		if v := t.reqMax[a.To] - d*t.dLate; v < rl {
			rl = v
		}
		if v := t.reqMin[a.To] - d*t.dEarly; v > re {
			re = v
		}
	}
	changed := !feq(t.reqMax[p], rl) || !feq(t.reqMin[p], re)
	t.reqMax[p] = rl
	t.reqMin[p] = re
	return changed
}

func feq(a, b float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= eps
}

// Update applies all pending latency and structural changes incrementally:
// it re-propagates arrival times through the affected fanout cones and
// returns the number of pins re-evaluated. Required times are not
// propagated here: Update queues the backward seeds, and they drain at the
// first LaunchLateSlack or LaunchEarlySlack read. Every other slack query
// (Slack, WNSTNS, SlackDelta, CheckpointWNS, the extractors) reads only
// arrivals and latencies, so it is exact right after Update.
func (t *State) Update() int {
	sp := t.rec.StartSpan(obs.SpanTimerUpdate).WithReq(t.req)
	if t.rec != nil {
		t.rec.Add(obs.CtrTimerUpdates, 1)
		t.rec.Add(obs.CtrTimerDirtyFFs, int64(len(t.dirtyFFList)))
		t.rec.Add(obs.CtrTimerDirtyCells, int64(len(t.dirtyCellList)))
	}
	if t.undo.open {
		t.undo.ffCut.drain(t.dirtyFFList)
		t.undo.cellCut.drain(t.dirtyCellList)
	}
	if len(t.dirtyCellList) > 0 {
		// Structural/positional change: refresh the delays of incident nets
		// and the clock network, then seed affected data pins.
		t.netSeenList = t.netSeenList[:0]
		for _, c := range t.dirtyCellList {
			t.cellDirtyMark[c] = false
			for _, p := range t.D.Cells[c].Pins {
				n := t.D.Pins[p].Net
				if n == netlist.NoNet {
					// No net carries the change (SwapType of a cell
					// driving nothing): refresh the pin itself.
					t.refreshOffNet(p)
				} else if !t.netSeen[n] {
					t.netSeen[n] = true
					t.netSeenList = append(t.netSeenList, n)
				}
			}
		}
		t.dirtyCellList = t.dirtyCellList[:0]
		for _, n := range t.netSeenList {
			t.refreshNet(n)
		}
		for _, ff := range t.recomputeClock(false) {
			t.markFFDirty(ff)
		}
		for _, n := range t.netSeenList {
			t.netSeen[n] = false
			if t.D.Nets[n].IsClock {
				continue
			}
			drv := t.D.Nets[n].Driver
			if drv != netlist.NoPin && t.inData[drv] {
				t.seedFwd(drv)
				t.seedBwd(drv)
			}
			for _, s := range t.D.Nets[n].Sinks {
				if t.inData[s] {
					t.seedFwd(s)
					t.seedBwd(s)
				}
			}
			// The driver cell's arc delay changed: re-evaluate its output
			// pin and re-derive required times at its inputs.
			if drv != netlist.NoPin {
				cell := &t.D.Cells[t.D.Pins[drv].Cell]
				for _, p := range cell.Pins {
					if t.inData[p] {
						t.seedFwd(p)
						t.seedBwd(p)
					}
				}
			}
		}
	}
	for _, ff := range t.dirtyFFList {
		t.ffDirtyMark[ff] = false
		q := t.D.FFQ(ff)
		if t.inData[q] {
			t.seedFwd(q)
		}
		dpin := t.D.FFData(ff)
		if t.inData[dpin] {
			t.seedBwd(dpin)
		}
	}
	t.dirtyFFList = t.dirtyFFList[:0]

	visited, levels := t.runForward()
	if t.rec != nil {
		t.rec.Add(obs.CtrTimerPins, int64(visited))
		t.rec.Add(obs.CtrTimerLevels, int64(levels))
	}
	sp.EndArg2("pins", int64(visited), "levels", int64(levels))
	return visited
}

// RetimeClock applies the pending DirtyCell changes to the clock network
// only: it re-times the LCBs whose output net a dirty cell is on, as Update
// would, logs the latencies it writes while a checkpoint is open, and queues
// the flip-flops whose latency moved, so that the next Update propagates
// their arrivals. It consumes the DirtyCell marks without re-deriving any
// data net, so it serves only a change that alters no data-arc delay: a
// clock pin moved between LCB nets, as in a §IV-A reconnection. Until that
// Update, arrivals (and so Slack, WNSTNS and SlackDelta) stay as the last
// Update left them; a LaunchModel reads the new latencies instead.
func (t *State) RetimeClock() {
	if t.undo.open {
		t.undo.cellCut.drain(t.dirtyCellList)
	}
	t.netSeenList = t.netSeenList[:0]
	for _, c := range t.dirtyCellList {
		t.cellDirtyMark[c] = false
		for _, p := range t.D.Cells[c].Pins {
			n := t.D.Pins[p].Net
			if n != netlist.NoNet && t.D.Nets[n].IsClock && !t.netSeen[n] {
				t.netSeen[n] = true
				t.netSeenList = append(t.netSeenList, n)
			}
		}
	}
	t.dirtyCellList = t.dirtyCellList[:0]
	for _, ff := range t.recomputeClock(false) {
		t.markFFDirty(ff)
	}
	for _, n := range t.netSeenList {
		t.netSeen[n] = false
	}
}

func (t *State) seedFwd(p netlist.PinID) {
	if t.inFwd[p] {
		return
	}
	t.inFwd[p] = true
	t.fwdBuckets[t.level[p]] = append(t.fwdBuckets[t.level[p]], p)
	t.Stats.IncrementalSeeds++
}

func (t *State) seedBwd(p netlist.PinID) {
	if t.inBwd[p] {
		return
	}
	t.inBwd[p] = true
	t.bwdBuckets[t.level[p]] = append(t.bwdBuckets[t.level[p]], p)
	t.reqStale = true
}

// runForward drains the forward worklist level by level, in bucket order. A
// pin's fanout is strictly deeper than the pin itself, so seeding never
// mutates the bucket being drained.
//
// Arrival changes shift endpoint slacks only; required times change only at
// endpoints via latency, which is seeded separately — so the forward pass
// never seeds the backward worklist.
//
// It returns the pins visited and the non-empty level buckets swept.
func (t *State) runForward() (int, int) {
	visited, levels := 0, 0
	for lvl := int32(0); lvl <= t.maxLvl; lvl++ {
		if t.stopRequested() {
			break // remaining buckets stay queued; a later Update drains them
		}
		bucket := t.fwdBuckets[lvl]
		t.fwdBuckets[lvl] = bucket[:0]
		if len(bucket) == 0 {
			continue
		}
		levels++
		if t.undo.open {
			t.undo.at = logTimes(t.undo.at, bucket, t.atMin, t.atMax)
		}
		for _, p := range bucket {
			t.inFwd[p] = false
			visited++
			t.Stats.ForwardPinVisits++
			if t.evalArrival(p) {
				for _, a := range t.fanoutArcs(p) {
					t.seedFwd(a.To)
				}
			}
		}
	}
	return visited, levels
}

// settleRequired drains the queued backward seeds, so the required times
// are exact, before a required-time read. A read inside an open checkpoint
// panics: the trial log records no required time.
func (t *State) settleRequired() {
	if t.undo.open {
		panic("timing: required-time read with a checkpoint open")
	}
	if !t.reqStale {
		return
	}
	visited, levels := t.runBackward()
	t.reqStale = false
	if t.rec != nil {
		t.rec.Add(obs.CtrTimerPins, int64(visited))
		t.rec.Add(obs.CtrTimerLevels, int64(levels))
	}
}

// runBackward drains the backward worklist level by level, deepest first,
// like runForward. It never probes the SetCheck hook: a required-time read
// must return settled values.
func (t *State) runBackward() (int, int) {
	visited, levels := 0, 0
	for lvl := t.maxLvl; lvl >= 0; lvl-- {
		bucket := t.bwdBuckets[lvl]
		t.bwdBuckets[lvl] = bucket[:0]
		if len(bucket) == 0 {
			continue
		}
		levels++
		for _, p := range bucket {
			t.inBwd[p] = false
			visited++
			t.Stats.BackwardPinVisits++
			if t.evalRequired(p) {
				for _, a := range t.faninArcs(p) {
					t.seedBwd(a.To)
				}
			}
		}
	}
	return visited, levels
}

// LateSlack returns the setup slack of an endpoint: required − max arrival.
// Endpoints with no arriving path have +Inf slack.
func (t *State) LateSlack(e EndpointID) float64 {
	p := t.endpoints[e].Pin
	if math.IsInf(t.atMax[p], -1) {
		return math.Inf(1)
	}
	rl, _, _ := t.endpointRequired(p)
	return rl - t.atMax[p]
}

// slackWith is the slack formula of LateSlack and EarlySlack over an
// explicit capture latency and endpoint-pin arrivals, for both modes at once
// (indexed by Mode), so SlackDelta and CheckpointWNS can evaluate the values
// logged before a checkpoint.
func (t *State) slackWith(e EndpointID, v epTimes) (s [2]float64) {
	ep := &t.endpoints[e]
	var rl, re float64
	if ep.IsPort {
		rl, re = t.portRequired(ep.Cell)
	} else {
		rl, re = t.ffRequired(t.D.Cells[ep.Cell].Type, v.lat)
	}
	s[Late], s[Early] = math.Inf(1), math.Inf(1)
	if !math.IsInf(v.atMax, -1) {
		s[Late] = rl - v.atMax
	}
	if !math.IsInf(v.atMin, 1) {
		s[Early] = v.atMin - re
	}
	return s
}

// EarlySlack returns the hold slack of an endpoint: min arrival − required.
func (t *State) EarlySlack(e EndpointID) float64 {
	p := t.endpoints[e].Pin
	if math.IsInf(t.atMin[p], 1) {
		return math.Inf(1)
	}
	_, re, _ := t.endpointRequired(p)
	return t.atMin[p] - re
}

// Slack returns the endpoint slack in the given mode.
func (t *State) Slack(e EndpointID, m Mode) float64 {
	if m == Early {
		return t.EarlySlack(e)
	}
	return t.LateSlack(e)
}

// LaunchLateSlack returns the worst late slack among all timing paths
// launched by the flip-flop — the ŝ^L bound of §III-C1 used when raising
// launch latencies during early optimization. It is derived from the
// backward late required time at the Q pin, so the first read after an
// Update drains the queued backward seeds. It panics while a checkpoint is
// open.
func (t *State) LaunchLateSlack(ff netlist.CellID) float64 {
	t.settleRequired()
	q := t.D.FFQ(ff)
	if math.IsInf(t.reqMax[q], 1) {
		return math.Inf(1) // no launched paths
	}
	return t.reqMax[q] - t.atMax[q]
}

// LaunchEarlySlack returns the worst early slack among all timing paths
// launched by the flip-flop (min arrival − early required at the Q pin).
// Like LaunchLateSlack it settles the required times first, and it panics
// while a checkpoint is open.
func (t *State) LaunchEarlySlack(ff netlist.CellID) float64 {
	t.settleRequired()
	q := t.D.FFQ(ff)
	if math.IsInf(t.reqMin[q], -1) {
		return math.Inf(1)
	}
	return t.atMin[q] - t.reqMin[q]
}

// WNSTNS returns the worst and total negative slack over all endpoints in
// the given mode. TNS sums one worst violation per endpoint, matching the
// ICCAD-2015 evaluator.
func (t *State) WNSTNS(m Mode) (wns, tns float64) {
	for e := range t.endpoints {
		s := t.Slack(EndpointID(e), m)
		if s < 0 {
			tns += s
			if s < wns {
				wns = s
			}
		}
	}
	return wns, tns
}

// ViolatedEndpoints appends to dst the endpoints with negative slack in the
// given mode, and returns the extended slice.
func (t *State) ViolatedEndpoints(m Mode, dst []EndpointID) []EndpointID {
	for e := range t.endpoints {
		if t.Slack(EndpointID(e), m) < -eps {
			dst = append(dst, EndpointID(e))
		}
	}
	return dst
}

// ArrivalMax and ArrivalMin expose raw arrivals for white-box tests.
func (t *State) ArrivalMax(p netlist.PinID) float64 { return t.atMax[p] }

// ArrivalMin returns the min (early) arrival time at a pin.
func (t *State) ArrivalMin(p netlist.PinID) float64 { return t.atMin[p] }
