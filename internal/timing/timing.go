// Package timing is the static timing analysis (STA) engine — the "timer"
// that the paper's algorithms drive. It provides:
//
//   - levelized min/max arrival-time propagation over the gate-level timing
//     graph (pins are vertices; cell arcs and net arcs are edges);
//   - backward required-time propagation, giving per-flip-flop launch-side
//     slack bounds (the ŝ^L of §III-C1) in addition to the endpoint-side
//     early/late slacks;
//   - incremental propagation: changing the clock latency of a set of
//     flip-flops re-times only their fanout/fanin cones;
//   - clock-network evaluation (root → LCB → FF) so that LCB–FF reconnection
//     physically changes flip-flop latencies;
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
	"runtime"

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

// EndpointID indexes Timer.endpoints.
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
// latencies, the per-net load cache, dirty queues and all per-session
// scratch, layered over an immutable compiled *Graph (embedded, so graph
// topology and tables read naturally as t.level, t.fwdArc, ...). Many States
// may share one Graph concurrently; a State itself is single-threaded
// (its Update fans work out to its own worker pool internally).
type State struct {
	*Graph

	// Effective analysis parameters. They start from the design/model values
	// at NewState and move only via SetPeriod/SetDerates, enabling what-if
	// sessions over the shared graph.
	period        float64
	dEarly, dLate float64 // analysis-corner derates (1.0 when unset)

	// Per-net driver load cache.
	netLoad  []float64
	netDirty []bool

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
	ffDirtyMark   []bool // indexed by FF index
	dirtyCellList []netlist.CellID
	cellDirtyMark []bool // indexed by cell
	netSeen       []bool // structural-update net dedup scratch
	netSeenList   []netlist.NetID
	clkChanged    []netlist.CellID // recomputeClock result scratch

	fwdBuckets [][]netlist.PinID
	bwdBuckets [][]netlist.PinID
	inFwd      []bool
	inBwd      []bool
	changedBuf []bool // per-bucket parallel changed flags

	// Extraction scratch state.
	trace     traceState
	dout      []float64
	doutValid bool

	// Parallel-propagation state.
	workers int         // worker-pool width used by Update (1 = serial)
	pool    extractPool // batch-extraction worker scratch (batch.go)

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

// Timer is the classic single-session handle: one State over its own Graph.
// The alias keeps every historical call site — and every method below —
// valid under the Graph/State split.
type Timer = State

// New builds a timer over d using model m: it compiles the graph and returns
// a fresh state, equivalent to Compile followed by NewState. It returns an
// error if the data graph contains a combinational cycle. Callers creating
// many sessions over one design should Compile once and call NewState per
// session instead.
func New(d *netlist.Design, m delay.Model) (*Timer, error) {
	g, err := Compile(d, m)
	if err != nil {
		return nil, err
	}
	return g.NewState(), nil
}

// cellArcDelay returns the input→output delay of the cell owning output pin
// out, under the current load of its output net.
func (t *Timer) cellArcDelay(out netlist.PinID) float64 {
	d := t.D
	pin := &d.Pins[out]
	var load float64
	if pin.Net != netlist.NoNet {
		load = t.loadOf(pin.Net)
	}
	return t.M.CellDelay(d.Cells[pin.Cell].Type, load)
}

func (t *Timer) loadOf(n netlist.NetID) float64 {
	if t.netDirty[n] {
		t.logLoad(n)
		t.netLoad[n] = t.M.NetLoad(t.D, n)
		t.netDirty[n] = false
	}
	return t.netLoad[n]
}

// refreshNetLoads recomputes every stale net load serially, so subsequent
// concurrent readers never touch the lazy cache.
func (t *Timer) refreshNetLoads() {
	for n := range t.netDirty {
		if t.netDirty[n] {
			t.logLoad(netlist.NetID(n))
			t.netLoad[n] = t.M.NetLoad(t.D, netlist.NetID(n))
			t.netDirty[n] = false
		}
	}
}

// SetWorkers sets the worker-pool width used by incremental Update and the
// batch extractors (n <= 0 means GOMAXPROCS). Results are bit-identical at
// any width; 1 (the default) runs fully serial.
func (t *Timer) SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	t.workers = n
	t.rec.SetGauge(obs.GaugeWorkers, int64(n))
}

// Workers returns the current worker-pool width.
func (t *Timer) Workers() int { return t.workers }

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
// far. With no hook installed the probes cost a nil check and behavior is
// unchanged.
func (t *Timer) SetCheck(f func() bool) { t.check = f }

// Check returns the installed cooperative-stop hook (nil if none), so
// callers can save and restore it around a nested use.
func (t *Timer) Check() func() bool { return t.check }

// stopRequested probes the cooperative-stop hook.
func (t *Timer) stopRequested() bool { return t.check != nil && t.check() }

// SetRecorder installs an instrumentation recorder on the timer (nil
// uninstalls). With no recorder the instrumented paths cost a nil check and
// allocate nothing.
func (t *Timer) SetRecorder(r *obs.Recorder) {
	t.rec = r
	t.rec.SetGauge(obs.GaugeWorkers, int64(t.workers))
}

// Recorder returns the installed instrumentation recorder (nil if none).
func (t *Timer) Recorder() *obs.Recorder { return t.rec }

// SetReq tags this state's subsequently recorded timer spans (Update,
// FullUpdate, batch extraction) with a request ID, so a service job's trace
// is attributable to the request that ran it ("" untags). The engine sets
// it from the job's context and clears it when the state is recycled.
func (t *Timer) SetReq(id string) { t.req = id }

// Req returns the request ID the state's spans are tagged with ("" if none).
func (t *Timer) Req() string { return t.req }

// Latency returns the current effective clock latency of a flip-flop: the
// physical clock-network arrival plus any predictive CSS latency.
func (t *Timer) Latency(ff netlist.CellID) float64 {
	i := t.ffIdx[ff]
	return t.baseLat[i] + t.extraLat[i]
}

// BaseLatency returns the physical clock-network arrival at the flip-flop's
// CK pin.
func (t *Timer) BaseLatency(ff netlist.CellID) float64 { return t.baseLat[t.ffIdx[ff]] }

// ExtraLatency returns the predictive CSS latency of a flip-flop.
func (t *Timer) ExtraLatency(ff netlist.CellID) float64 { return t.extraLat[t.ffIdx[ff]] }

// SetExtraLatency sets the predictive CSS latency of a flip-flop. The change
// takes effect at the next Update call.
func (t *Timer) SetExtraLatency(ff netlist.CellID, l float64) {
	i := t.ffIdx[ff]
	if t.extraLat[i] == l {
		return
	}
	t.logLat(i)
	t.extraLat[i] = l
	t.markFFDirty(ff, i)
}

// AddExtraLatency increments the predictive CSS latency of a flip-flop.
func (t *Timer) AddExtraLatency(ff netlist.CellID, dl float64) {
	if dl == 0 {
		return
	}
	i := t.ffIdx[ff]
	t.logLat(i)
	t.extraLat[i] += dl
	t.markFFDirty(ff, i)
}

func (t *Timer) markFFDirty(ff netlist.CellID, i int32) {
	if !t.ffDirtyMark[i] {
		t.ffDirtyMark[i] = true
		t.dirtyFFList = append(t.dirtyFFList, ff)
	}
}

// DirtyCell informs the timer that a cell was moved, resized or reconnected;
// delays of its incident nets are re-derived at the next Update. A clock-pin
// reconnection changes the load of both LCBs involved: dirty the flip-flop
// and both LCBs, since Update re-times only the LCBs whose output net is
// dirty.
func (t *Timer) DirtyCell(c netlist.CellID) {
	if !t.cellDirtyMark[c] {
		t.cellDirtyMark[c] = true
		t.dirtyCellList = append(t.dirtyCellList, c)
	}
}

// clearDirty resets both pending-change queues.
func (t *Timer) clearDirty() {
	for _, ff := range t.dirtyFFList {
		t.ffDirtyMark[t.ffIdx[ff]] = false
	}
	t.dirtyFFList = t.dirtyFFList[:0]
	for _, c := range t.dirtyCellList {
		t.cellDirtyMark[c] = false
	}
	t.dirtyCellList = t.dirtyCellList[:0]
}

// clearWorklists empties the propagation buckets, which hold pins only after
// an Update aborted by the SetCheck hook.
func (t *Timer) clearWorklists() {
	for lvl := range t.fwdBuckets {
		for _, p := range t.fwdBuckets[lvl] {
			t.inFwd[p] = false
		}
		t.fwdBuckets[lvl] = t.fwdBuckets[lvl][:0]
		for _, p := range t.bwdBuckets[lvl] {
			t.inBwd[p] = false
		}
		t.bwdBuckets[lvl] = t.bwdBuckets[lvl][:0]
	}
}

// recomputeClock evaluates the physical clock network and returns the FFs
// whose base latency moved by more than eps. With all set it re-times every
// LCB. Otherwise it re-times only the LCBs driving a net in netSeenList (the
// current Update's dirty nets), unless the LCB-input arrival differs from
// the cached one, which moves every LCB. That is exact under DirtyCell's
// contract: an LCB with an unchanged input arrival and an unchanged output
// net recomputes the same latencies, which the eps gate leaves alone.
func (t *Timer) recomputeClock(all bool) []netlist.CellID {
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
func (t *Timer) retimeLCB(lcb netlist.CellID, rootNet netlist.NetID, changed []netlist.CellID) []netlist.CellID {
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
		if math.Abs(lat-t.baseLat[fi]) > eps {
			t.logLat(fi)
			t.baseLat[fi] = lat
			changed = append(changed, ff)
		}
	}
	return changed
}

// FullUpdate recomputes the clock network, all net loads, and all arrival
// and required times from scratch. It closes an open checkpoint, keeping
// its changes (as Commit does).
func (t *Timer) FullUpdate() {
	sp := t.rec.StartSpan(obs.SpanTimerFullUpdate).WithReq(t.req)
	t.rec.Add(obs.CtrTimerFullUpdates, 1)
	t.Stats.FullUpdates++
	t.undo.close()
	for i := range t.netDirty {
		t.netDirty[i] = true
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
// (for flip-flops) plus the driver's resistance times the output net load —
// and derated per analysis corner; clock latencies are not derated (ideal
// common clock, no CPPR needed).
func (t *Timer) sourceArrival(p netlist.PinID) (early, late float64, ok bool) {
	d := t.D
	pin := &d.Pins[p]
	cell := &d.Cells[pin.Cell]
	var load float64
	switch cell.Type.Kind {
	case netlist.KindFF:
		if cell.Pins[netlist.FFPinQ] != p {
			return 0, 0, false
		}
		if pin.Net != netlist.NoNet {
			load = t.loadOf(pin.Net)
		}
		lat := t.Latency(pin.Cell)
		base := cell.Type.ClkToQ + cell.Type.DriveRes*load
		return lat + base*t.dEarly, lat + base*t.dLate, true
	case netlist.KindPortIn:
		if pin.Net != netlist.NoNet {
			load = t.loadOf(pin.Net)
		}
		lat := d.PortLatency + d.InDelay[pin.Cell]
		base := cell.Type.DriveRes * load
		return lat + base*t.dEarly, lat + base*t.dLate, true
	}
	return 0, 0, false
}

// evalArrival recomputes atMin/atMax of p from its fanin; it reports whether
// either value changed.
func (t *Timer) evalArrival(p netlist.PinID) bool {
	if srcE, srcL, ok := t.sourceArrival(p); ok {
		changed := math.Abs(t.atMax[p]-srcL) > eps || math.Abs(t.atMin[p]-srcE) > eps
		t.atMax[p] = srcL
		t.atMin[p] = srcE
		return changed
	}
	mx, mn := math.Inf(-1), math.Inf(1)
	if arcs := t.faninArcs(p); len(arcs) > 0 {
		if arcs[0].Net == netlist.NoNet {
			// Cell arcs share one delay: the owning cell's arc under the
			// current output load.
			cd := t.cellArcDelay(p)
			dl, de := cd*t.dLate, cd*t.dEarly
			for _, a := range arcs {
				if v := t.atMax[a.To] + dl; v > mx {
					mx = v
				}
				if v := t.atMin[a.To] + de; v < mn {
					mn = v
				}
			}
		} else {
			for _, a := range arcs {
				d := t.M.SinkWireDelay(t.D, a.Net, p)
				if v := t.atMax[a.To] + d*t.dLate; v > mx {
					mx = v
				}
				if v := t.atMin[a.To] + d*t.dEarly; v < mn {
					mn = v
				}
			}
		}
	}
	changed := !feq(t.atMax[p], mx) || !feq(t.atMin[p], mn)
	t.atMax[p] = mx
	t.atMin[p] = mn
	return changed
}

// endpointRequired returns the (late, early) required times for endpoint
// pins, and whether p is an endpoint pin.
func (t *Timer) endpointRequired(p netlist.PinID) (reqLate, reqEarly float64, ok bool) {
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
func (t *Timer) ffRequired(typ *netlist.CellType, l float64) (reqLate, reqEarly float64) {
	return l + t.period - typ.Setup, l + typ.Hold
}

// portRequired returns an output port's (late, early) required times.
func (t *Timer) portRequired(port netlist.CellID) (reqLate, reqEarly float64) {
	return t.D.PortLatency + t.period - t.D.OutDelay[port], t.D.PortLatency
}

// evalRequired recomputes reqMax/reqMin of p from its fanout; it reports
// whether either value changed.
func (t *Timer) evalRequired(p netlist.PinID) bool {
	if rl, re, ok := t.endpointRequired(p); ok {
		changed := !feq(t.reqMax[p], rl) || !feq(t.reqMin[p], re)
		t.reqMax[p] = rl
		t.reqMin[p] = re
		return changed
	}
	rl, re := math.Inf(1), math.Inf(-1)
	for _, a := range t.fanoutArcs(p) {
		d := t.fanoutArcDelay(a)
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
// only the affected cones are re-propagated. It returns the number of pins
// re-evaluated.
func (t *Timer) Update() int {
	sp := t.rec.StartSpan(obs.SpanTimerUpdate).WithReq(t.req)
	if t.rec != nil {
		t.rec.Add(obs.CtrTimerUpdates, 1)
		t.rec.Add(obs.CtrTimerDirtyFFs, int64(len(t.dirtyFFList)))
		t.rec.Add(obs.CtrTimerDirtyCells, int64(len(t.dirtyCellList)))
	}
	if len(t.dirtyCellList) > 0 {
		// Structural/positional change: refresh loads of incident nets and
		// the clock network, then seed affected data pins.
		t.netSeenList = t.netSeenList[:0]
		for _, c := range t.dirtyCellList {
			t.cellDirtyMark[c] = false
			for _, p := range t.D.Cells[c].Pins {
				if n := t.D.Pins[p].Net; n != netlist.NoNet && !t.netSeen[n] {
					t.netSeen[n] = true
					t.netSeenList = append(t.netSeenList, n)
				}
			}
		}
		t.dirtyCellList = t.dirtyCellList[:0]
		for _, n := range t.netSeenList {
			t.logLoad(n)
			t.netDirty[n] = true
		}
		for _, ff := range t.recomputeClock(false) {
			t.markFFDirty(ff, t.ffIdx[ff])
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
		t.ffDirtyMark[t.ffIdx[ff]] = false
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

	if t.workers > 1 {
		// Workers must never touch the lazy load cache concurrently.
		t.refreshNetLoads()
	}
	fwd, fwdLvls := t.runForward()
	bwd, bwdLvls := t.runBackward()
	visited := fwd + bwd
	if t.rec != nil {
		t.rec.Add(obs.CtrTimerPins, int64(visited))
		t.rec.Add(obs.CtrTimerLevels, int64(fwdLvls+bwdLvls))
	}
	sp.EndArg2("pins", int64(visited), "levels", int64(fwdLvls+bwdLvls))
	return visited
}

func (t *Timer) seedFwd(p netlist.PinID) {
	if t.inFwd[p] {
		return
	}
	t.inFwd[p] = true
	t.fwdBuckets[t.level[p]] = append(t.fwdBuckets[t.level[p]], p)
	t.Stats.IncrementalSeeds++
}

func (t *Timer) seedBwd(p netlist.PinID) {
	if t.inBwd[p] {
		return
	}
	t.inBwd[p] = true
	t.bwdBuckets[t.level[p]] = append(t.bwdBuckets[t.level[p]], p)
}

// parallelBucketMin is the minimum level-bucket size worth fanning out to
// the worker pool.
const parallelBucketMin = 64

// changedScratch returns the reusable per-bucket changed-flag scratch,
// sized to n.
func (t *Timer) changedScratch(n int) []bool {
	if cap(t.changedBuf) < n {
		t.changedBuf = make([]bool, n)
	}
	return t.changedBuf[:n]
}

// runForward drains the forward worklist level by level. A pin's fanout is
// strictly deeper than the pin itself, so seeding never mutates the bucket
// being drained, and pins within one level are independent: large buckets
// are evaluated by the worker pool first, then traversed serially in bucket
// order to seed — exactly the serial visit/seed order, hence bit-identical
// results at any worker count.
//
// Arrival changes shift endpoint slacks only; required times change only at
// endpoints via latency, which is seeded separately — so the forward pass
// never seeds the backward worklist.
//
// It returns the pins visited and the non-empty level buckets swept.
func (t *Timer) runForward() (int, int) {
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
		if t.workers > 1 && len(bucket) >= parallelBucketMin {
			changed := t.changedScratch(len(bucket))
			chunked(t.workers, len(bucket), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					changed[i] = t.evalArrival(bucket[i])
				}
			})
			for i, p := range bucket {
				t.inFwd[p] = false
				visited++
				t.Stats.ForwardPinVisits++
				if changed[i] {
					for _, a := range t.fanoutArcs(p) {
						t.seedFwd(a.To)
					}
				}
			}
			continue
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

func (t *Timer) runBackward() (int, int) {
	visited, levels := 0, 0
	for lvl := t.maxLvl; lvl >= 0; lvl-- {
		if t.stopRequested() {
			break // remaining buckets stay queued; a later Update drains them
		}
		bucket := t.bwdBuckets[lvl]
		t.bwdBuckets[lvl] = bucket[:0]
		if len(bucket) == 0 {
			continue
		}
		levels++
		if t.undo.open {
			t.undo.req = logTimes(t.undo.req, bucket, t.reqMin, t.reqMax)
		}
		if t.workers > 1 && len(bucket) >= parallelBucketMin {
			changed := t.changedScratch(len(bucket))
			chunked(t.workers, len(bucket), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					changed[i] = t.evalRequired(bucket[i])
				}
			})
			for i, p := range bucket {
				t.inBwd[p] = false
				visited++
				t.Stats.BackwardPinVisits++
				if changed[i] {
					for _, a := range t.faninArcs(p) {
						t.seedBwd(a.To)
					}
				}
			}
			continue
		}
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
func (t *Timer) LateSlack(e EndpointID) float64 {
	p := t.endpoints[e].Pin
	if math.IsInf(t.atMax[p], -1) {
		return math.Inf(1)
	}
	rl, _, _ := t.endpointRequired(p)
	return rl - t.atMax[p]
}

// slackWith is the slack formula of LateSlack/EarlySlack over an explicit
// capture latency and endpoint-pin arrivals, so SlackDelta can evaluate the
// values logged before a checkpoint.
func (t *Timer) slackWith(e EndpointID, m Mode, lat, atMin, atMax float64) float64 {
	ep := &t.endpoints[e]
	var rl, re float64
	if ep.IsPort {
		rl, re = t.portRequired(ep.Cell)
	} else {
		rl, re = t.ffRequired(t.D.Cells[ep.Cell].Type, lat)
	}
	if m == Early {
		if math.IsInf(atMin, 1) {
			return math.Inf(1)
		}
		return atMin - re
	}
	if math.IsInf(atMax, -1) {
		return math.Inf(1)
	}
	return rl - atMax
}

// EarlySlack returns the hold slack of an endpoint: min arrival − required.
func (t *Timer) EarlySlack(e EndpointID) float64 {
	p := t.endpoints[e].Pin
	if math.IsInf(t.atMin[p], 1) {
		return math.Inf(1)
	}
	_, re, _ := t.endpointRequired(p)
	return t.atMin[p] - re
}

// Slack returns the endpoint slack in the given mode.
func (t *Timer) Slack(e EndpointID, m Mode) float64 {
	if m == Early {
		return t.EarlySlack(e)
	}
	return t.LateSlack(e)
}

// LaunchLateSlack returns the worst late slack among all timing paths
// launched by the flip-flop — the ŝ^L bound of §III-C1 used when raising
// launch latencies during early optimization. It is derived from the
// backward late required time at the Q pin.
func (t *Timer) LaunchLateSlack(ff netlist.CellID) float64 {
	q := t.D.FFQ(ff)
	if math.IsInf(t.reqMax[q], 1) {
		return math.Inf(1) // no launched paths
	}
	return t.reqMax[q] - t.atMax[q]
}

// LaunchEarlySlack returns the worst early slack among all timing paths
// launched by the flip-flop (min arrival − early required at the Q pin).
func (t *Timer) LaunchEarlySlack(ff netlist.CellID) float64 {
	q := t.D.FFQ(ff)
	if math.IsInf(t.reqMin[q], -1) {
		return math.Inf(1)
	}
	return t.atMin[q] - t.reqMin[q]
}

// WNSTNS returns the worst and total negative slack over all endpoints in
// the given mode. TNS sums one worst violation per endpoint, matching the
// ICCAD-2015 evaluator.
func (t *Timer) WNSTNS(m Mode) (wns, tns float64) {
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
func (t *Timer) ViolatedEndpoints(m Mode, dst []EndpointID) []EndpointID {
	for e := range t.endpoints {
		if t.Slack(EndpointID(e), m) < -eps {
			dst = append(dst, EndpointID(e))
		}
	}
	return dst
}

// ArrivalMax and ArrivalMin expose raw arrivals for white-box tests.
func (t *Timer) ArrivalMax(p netlist.PinID) float64 { return t.atMax[p] }

// ArrivalMin returns the min (early) arrival time at a pin.
func (t *Timer) ArrivalMin(p netlist.PinID) float64 { return t.atMin[p] }
