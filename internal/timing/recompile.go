package timing

import (
	"math"

	"iterskew/internal/netlist"
)

// Delta describes a localized netlist edit for Recompile. The caller — who
// performed the edit — enumerates what changed:
//
//   - Cells: cells whose position, type or delay data changed (MoveCell,
//     SwapType, a resized driver). Their incident nets are refreshed.
//   - Nets: every net whose pin membership changed — both the net that lost
//     a pin and the net that gained it in a move.
//   - Pins: pins whose net attachment changed (the moved pin itself). This
//     covers pins that left a net, which the net's current membership can no
//     longer reveal.
//   - PortTiming: set when Period, PortLatency, InDelay or OutDelay changed;
//     every endpoint and input-port source is reseeded.
//
// Omitting a changed element from the delta yields a silently stale graph —
// the contract is the same as DirtyCell's, extended to structure.
type Delta struct {
	Cells      []netlist.CellID
	Nets       []netlist.NetID
	Pins       []netlist.PinID
	PortTiming bool
}

// RecompileStats reports what a Recompile call actually did.
type RecompileStats struct {
	Full          bool // delta exceeded the threshold (or changed shape): full Compile ran
	PinsRefreshed int  // snapshot pins re-evaluated (forward + backward visits)
	ArcsPatched   int  // CSR arcs rewritten
	Relevelized   bool // topological levels and order were rebuilt
}

// recompileFullFraction is the affected-pin fraction past which Recompile
// abandons patching and re-runs Compile: past ~a quarter of the graph the
// full rebuild's simple sequential passes win.
const recompileFullFraction = 4

// Recompile patches the compiled graph in place after a localized design
// edit: affected CSR ranges are rewritten, only the affected cone is
// re-levelized, and the pristine snapshot is re-propagated for dirtied pins
// only. The result is identical — CSR layout, levels, canonical order, and
// snapshot values bit-for-bit — to a from-scratch Compile of the mutated
// design, at a cost proportional to the edit's cone rather than the graph.
//
// Deltas that change the design's shape (cell/pin counts, pin
// classification, FF set) and deltas whose cone estimate exceeds 1/4 of the
// graph fall back to a full Compile (Stats.Full). On error the graph may be
// partially patched and must be discarded; existing States over the graph
// are invalidated either way and must be rebuilt via NewState.
func (g *Graph) Recompile(delta Delta) (RecompileStats, error) {
	var st RecompileStats
	d := g.D
	np := len(d.Pins)

	if len(delta.Cells) == 0 && len(delta.Nets) == 0 && len(delta.Pins) == 0 && !delta.PortTiming {
		return st, nil
	}

	// Shape changes can't be patched: the slab lengths are load-bearing.
	if np != len(g.inData) || len(d.Cells) != len(g.endpointOf) || len(d.FFs) != len(g.snapBaseLat) {
		return g.recompileFull(&st)
	}

	// Classification flips (a pin joining/leaving the data graph, e.g. a
	// rewire onto a clock net) change which arcs exist well beyond the
	// delta's own pins; punt to the full rebuild.
	inSeed := make([]bool, np)
	seeds := make([]netlist.PinID, 0, 64)
	seed := func(p netlist.PinID) {
		if g.inData[p] && !inSeed[p] {
			inSeed[p] = true
			seeds = append(seeds, p)
		}
	}
	flip := func(p netlist.PinID) bool { return g.pinInData(p) != g.inData[p] }

	// csrPins: pins whose own arc lists may have changed (structural edits).
	inCSR := make([]bool, np)
	csrPins := make([]netlist.PinID, 0, 16)
	csr := func(p netlist.PinID) {
		if g.inData[p] && !inCSR[p] {
			inCSR[p] = true
			csrPins = append(csrPins, p)
		}
	}

	for _, p := range delta.Pins {
		if flip(p) {
			return g.recompileFull(&st)
		}
		csr(p)
		seed(p)
	}
	for _, n := range delta.Nets {
		net := &d.Nets[n]
		if net.Driver != netlist.NoPin {
			if flip(net.Driver) {
				return g.recompileFull(&st)
			}
			csr(net.Driver)
		}
		for _, s := range net.Sinks {
			if flip(s) {
				return g.recompileFull(&st)
			}
			csr(s)
		}
	}
	for _, c := range delta.Cells {
		for _, p := range d.Cells[c].Pins {
			if flip(p) {
				return g.recompileFull(&st)
			}
			seed(p)
		}
	}

	// Affected nets: the structural delta plus every net incident to a
	// changed cell or pin (loads and arc delays moved with them).
	inNet := make([]bool, len(d.Nets))
	nets := make([]netlist.NetID, 0, 16)
	addNet := func(n netlist.NetID) {
		if n != netlist.NoNet && !inNet[n] {
			inNet[n] = true
			nets = append(nets, n)
		}
	}
	for _, n := range delta.Nets {
		addNet(n)
	}
	for _, c := range delta.Cells {
		for _, p := range d.Cells[c].Pins {
			addNet(d.Pins[p].Net)
		}
	}
	for _, p := range delta.Pins {
		addNet(d.Pins[p].Net)
	}

	// Seed the update cone exactly as an incremental Update would: for every
	// affected data net, the driver, the sinks, and the driver cell's pins
	// (its arc delay follows the output load).
	for _, n := range nets {
		net := &d.Nets[n]
		if net.IsClock {
			continue
		}
		if drv := net.Driver; drv != netlist.NoPin {
			seed(drv)
			for _, p := range d.Cells[d.Pins[drv].Cell].Pins {
				seed(p)
			}
		}
		for _, s := range net.Sinks {
			seed(s)
		}
	}
	for _, p := range csrPins {
		seed(p)
	}

	if len(seeds)*recompileFullFraction > np {
		return g.recompileFull(&st)
	}

	// --- Structural patch -------------------------------------------------
	if len(csrPins) > 0 {
		st.ArcsPatched = g.patchCSR(csrPins)
		if st.ArcsPatched > 0 {
			ok, changed := g.relevelize(csrPins)
			if !ok {
				// Worklist blow-up: a grown cone or a new combinational
				// cycle. Compile re-levelizes from scratch and reports the
				// cycle properly.
				return g.recompileFull(&st)
			}
			if changed {
				st.Relevelized = true
				g.maxLvl = 0
				for i := 0; i < np; i++ {
					if g.inData[i] && g.level[i] > g.maxLvl {
						g.maxLvl = g.level[i]
					}
				}
				g.buildOrderBuckets()
			}
		}
	}

	// --- Snapshot refresh -------------------------------------------------
	// Restore the old pristine snapshot into a scratch state, reseed the
	// affected cone, and drain with bitwise-change propagation: a pin whose
	// value is bit-identical to before cannot perturb anything downstream,
	// and every pin whose from-scratch value differs is reached and
	// recomputed from final fanin values — so the refreshed snapshot matches
	// a fresh Compile's exactly.
	s := g.blankState()
	s.restoreSnapshot()
	for _, n := range nets {
		s.refreshNet(n)
	}
	// A pin on no net is refreshed by no net: a delta cell's output driving
	// nothing (SwapType still changes its delay), or a detached pin.
	for _, c := range delta.Cells {
		for _, p := range d.Cells[c].Pins {
			if d.Pins[p].Net == netlist.NoNet {
				s.refreshOffNet(p)
			}
		}
	}
	for _, p := range delta.Pins {
		if d.Pins[p].Net == netlist.NoNet {
			s.refreshOffNet(p)
		}
	}
	g.refreshClockExact(s)
	for _, p := range delta.Pins {
		// A flip-flop clock pin detached from its branch loses its base
		// latency entirely (a fresh Compile would leave it at zero).
		pin := &d.Pins[p]
		if pin.Net == netlist.NoNet {
			if fi := g.ffIdx[pin.Cell]; fi >= 0 && d.Cells[pin.Cell].Pins[netlist.FFPinCK] == p && s.baseLat[fi] != 0 {
				s.baseLat[fi] = 0
				s.markFFDirty(pin.Cell)
			}
		}
	}
	for _, p := range seeds {
		s.seedFwd(p)
		s.seedBwd(p)
	}
	for _, ff := range s.dirtyFFList {
		s.ffDirtyMark[ff] = false
		if q := d.FFQ(ff); s.inData[q] {
			s.seedFwd(q)
		}
		if dp := d.FFData(ff); s.inData[dp] {
			s.seedBwd(dp)
		}
	}
	s.dirtyFFList = s.dirtyFFList[:0]
	if delta.PortTiming {
		for _, e := range g.endpoints {
			if s.inData[e.Pin] {
				s.seedBwd(e.Pin)
			}
		}
		for _, p := range d.InPorts {
			if out := d.OutPin(p); out != netlist.NoPin && s.inData[out] {
				s.seedFwd(out)
			}
		}
	}
	st.PinsRefreshed = s.drainExactForward() + s.drainExactBackward()

	g.snapAtMin, g.snapAtMax = s.atMin, s.atMax
	g.snapReqMin, g.snapReqMax = s.reqMin, s.reqMax
	g.snapBaseLat = s.baseLat
	g.snapDIn = s.dIn
	g.snapStats = Counters{
		FullUpdates:       1,
		ForwardPinVisits:  int64(len(g.order)),
		BackwardPinVisits: int64(len(g.order)),
	}
	return st, nil
}

// recompileFull replaces the graph wholesale with a from-scratch Compile of
// its (already mutated) design, preserving the *Graph pointer identity.
func (g *Graph) recompileFull(st *RecompileStats) (RecompileStats, error) {
	st.Full = true
	ng, err := Compile(g.D, g.M)
	if err != nil {
		return *st, err
	}
	*g = *ng
	return *st, nil
}

// pinInData reports whether pin p belongs to the data timing graph under the
// design's current state — the per-pin form of classifyPins' rule.
func (g *Graph) pinInData(p netlist.PinID) bool {
	d := g.D
	pin := &d.Pins[p]
	switch d.Cells[pin.Cell].Type.Kind {
	case netlist.KindLCB, netlist.KindClockRoot:
		return false
	case netlist.KindFF:
		if d.Cells[pin.Cell].Pins[netlist.FFPinCK] == p {
			return false
		}
	}
	if pin.Net != netlist.NoNet && d.Nets[pin.Net].IsClock {
		return false
	}
	return true
}

// fwdArcsNow recomputes pin p's forward arc list from the current design,
// mirroring buildCSR's per-pin layout (wire fanout in net-sink order; an
// input pin's single combinational cell arc).
func (g *Graph) fwdArcsNow(p netlist.PinID, dst []arcRef) []arcRef {
	d := g.D
	pin := &d.Pins[p]
	if pin.Dir == netlist.DirIn {
		cell := &d.Cells[pin.Cell]
		if cell.Type.Kind == netlist.KindComb {
			dst = append(dst, arcRef{To: cell.Pins[len(cell.Pins)-1]})
		}
		return dst
	}
	if pin.Net != netlist.NoNet && !d.Nets[pin.Net].IsClock {
		for _, s := range d.Nets[pin.Net].Sinks {
			if g.inData[s] {
				dst = append(dst, arcRef{To: s})
			}
		}
	}
	return dst
}

// bwdArcsNow recomputes pin p's backward arc list from the current design
// (an input pin's single wire fanin; cell fanin in cell-input order).
func (g *Graph) bwdArcsNow(p netlist.PinID, dst []arcRef) []arcRef {
	d := g.D
	pin := &d.Pins[p]
	if pin.Dir == netlist.DirIn {
		if pin.Net != netlist.NoNet {
			if drv := d.Nets[pin.Net].Driver; drv != netlist.NoPin && g.inData[drv] {
				dst = append(dst, arcRef{To: drv})
			}
		}
		return dst
	}
	cell := &d.Cells[pin.Cell]
	if cell.Type.Kind == netlist.KindComb {
		for k := 0; k < cell.Type.NumInputs; k++ {
			dst = append(dst, arcRef{To: cell.Pins[k]})
		}
	}
	return dst
}

// patchCSR rewrites the CSR arc ranges of the given pins from the current
// design. When no degree changed the rewrite is in place; otherwise the
// offset arrays are re-prefixed and untouched ranges block-copied. Returns
// the number of arcs written.
func (g *Graph) patchCSR(pins []netlist.PinID) int {
	np := len(g.D.Pins)
	newF := make([][]arcRef, len(pins))
	newB := make([][]arcRef, len(pins))
	patchIdx := make([]int32, np) // pin -> 1+index into pins, 0 = untouched
	sameShape := true
	written := 0
	for i, p := range pins {
		newF[i] = g.fwdArcsNow(p, nil)
		newB[i] = g.bwdArcsNow(p, nil)
		patchIdx[p] = int32(i + 1)
		if int32(len(newF[i])) != g.fwdOff[p+1]-g.fwdOff[p] ||
			int32(len(newB[i])) != g.bwdOff[p+1]-g.bwdOff[p] {
			sameShape = false
		}
		written += len(newF[i]) + len(newB[i])
	}
	if sameShape {
		for i, p := range pins {
			copy(g.fwdArc[g.fwdOff[p]:g.fwdOff[p+1]], newF[i])
			copy(g.bwdArc[g.bwdOff[p]:g.bwdOff[p+1]], newB[i])
		}
		return written
	}

	reoffset := func(off []int32, arc []arcRef, pick func(i int) []arcRef) ([]int32, []arcRef) {
		nOff := make([]int32, np+1)
		for p := 0; p < np; p++ {
			if pi := patchIdx[p]; pi != 0 {
				nOff[p+1] = nOff[p] + int32(len(pick(int(pi-1))))
			} else {
				nOff[p+1] = nOff[p] + (off[p+1] - off[p])
			}
		}
		nArc := make([]arcRef, nOff[np])
		for p := 0; p < np; p++ {
			if pi := patchIdx[p]; pi != 0 {
				copy(nArc[nOff[p]:nOff[p+1]], pick(int(pi-1)))
			} else {
				copy(nArc[nOff[p]:nOff[p+1]], arc[off[p]:off[p+1]])
			}
		}
		return nOff, nArc
	}
	g.fwdOff, g.fwdArc = reoffset(g.fwdOff, g.fwdArc, func(i int) []arcRef { return newF[i] })
	g.bwdOff, g.bwdArc = reoffset(g.bwdOff, g.bwdArc, func(i int) []arcRef { return newB[i] })
	return written
}

// relevelize repairs topological levels after a CSR patch with a worklist
// limited to the affected cone: a popped pin recomputes its level from its
// (new) fanin and pushes its fanout when the level moved. It reports whether
// the worklist converged within budget (it cannot on a new combinational
// cycle) and whether any level changed.
func (g *Graph) relevelize(seedPins []netlist.PinID) (ok, changed bool) {
	np := len(g.D.Pins)
	inQ := make([]bool, np)
	queue := make([]netlist.PinID, 0, 2*len(seedPins))
	push := func(p netlist.PinID) {
		if g.inData[p] && !inQ[p] {
			inQ[p] = true
			queue = append(queue, p)
		}
	}
	for _, p := range seedPins {
		push(p)
	}
	budget := 4*np + 64
	for head := 0; head < len(queue); head++ {
		if head > budget {
			return false, changed
		}
		p := queue[head]
		inQ[p] = false
		nl := int32(0)
		if arcs := g.faninArcs(p); len(arcs) > 0 {
			for _, a := range arcs {
				if l := g.level[a.To] + 1; l > nl {
					nl = l
				}
			}
		}
		if nl != g.level[p] {
			g.level[p] = nl
			changed = true
			for _, a := range g.fanoutArcs(p) {
				push(a.To)
			}
		}
	}
	return true, changed
}

// refreshClockExact recomputes the clock network like recomputeClock but
// flags flip-flops on bitwise latency change (via markFFDirty) instead of
// the eps cutoff, so the refreshed base latencies reproduce a from-scratch
// bootstrap exactly. The sub-eps snap-to-zero mirrors what a fresh Compile's
// eps update over zeroed latencies would leave behind.
func (g *Graph) refreshClockExact(s *State) {
	d := g.D
	if d.ClockRoot == netlist.NoCell {
		return
	}
	rootOut := d.OutPin(d.ClockRoot)
	rootNet := d.Pins[rootOut].Net
	if rootNet == netlist.NoNet {
		return
	}
	rootDelay := g.M.CellDelay(d.Cells[d.ClockRoot].Type, g.M.NetLoad(d, rootNet))
	balanced := 0.0
	for _, sk := range d.Nets[rootNet].Sinks {
		if w := g.M.SinkWireDelay(d, rootNet, sk); w > balanced {
			balanced = w
		}
	}
	for _, lcb := range d.LCBs {
		in := d.LCBIn(lcb)
		if d.Pins[in].Net != rootNet {
			continue
		}
		atIn := rootDelay + balanced
		outNet := d.Pins[d.LCBOut(lcb)].Net
		if outNet == netlist.NoNet {
			continue
		}
		atOut := atIn + g.M.CellDelay(d.Cells[lcb].Type, g.M.NetLoad(d, outNet))
		for _, ck := range d.Nets[outNet].Sinks {
			ff := d.Pins[ck].Cell
			fi := g.ffIdx[ff]
			if fi < 0 {
				continue
			}
			lat := atOut + g.M.SinkWireDelay(d, outNet, ck)
			if math.Abs(lat) <= eps {
				lat = 0
			}
			if math.Float64bits(lat) != math.Float64bits(s.baseLat[fi]) {
				s.baseLat[fi] = lat
				s.markFFDirty(ff)
			}
		}
	}
}

// drainExactForward drains the forward worklist like runForward but
// propagates on bitwise value change rather than the eps cutoff. Returns
// pins visited.
func (t *State) drainExactForward() int {
	visited := 0
	for lvl := int32(0); lvl <= t.maxLvl; lvl++ {
		bucket := t.fwdBuckets[lvl]
		t.fwdBuckets[lvl] = bucket[:0]
		for _, p := range bucket {
			t.inFwd[p] = false
			visited++
			oMax, oMin := math.Float64bits(t.atMax[p]), math.Float64bits(t.atMin[p])
			t.evalArrival(p)
			if math.Float64bits(t.atMax[p]) != oMax || math.Float64bits(t.atMin[p]) != oMin {
				for _, a := range t.fanoutArcs(p) {
					t.seedFwd(a.To)
				}
			}
		}
	}
	return visited
}

// drainExactBackward mirrors drainExactForward for required times.
func (t *State) drainExactBackward() int {
	visited := 0
	for lvl := t.maxLvl; lvl >= 0; lvl-- {
		bucket := t.bwdBuckets[lvl]
		t.bwdBuckets[lvl] = bucket[:0]
		for _, p := range bucket {
			t.inBwd[p] = false
			visited++
			oMax, oMin := math.Float64bits(t.reqMax[p]), math.Float64bits(t.reqMin[p])
			t.evalRequired(p)
			if math.Float64bits(t.reqMax[p]) != oMax || math.Float64bits(t.reqMin[p]) != oMin {
				for _, a := range t.faninArcs(p) {
					t.seedBwd(a.To)
				}
			}
		}
	}
	return visited
}
