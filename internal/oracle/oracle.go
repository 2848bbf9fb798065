// Package oracle is the differential reference for the clock skew
// scheduling stack: an independent full-sequential-graph solver and an
// invariant checker used to validate the dynamic-extraction scheduler
// (internal/core) and its baselines against something that shares none of
// their machinery.
//
// The reference path deliberately avoids internal/timing and internal/core
// code: it re-derives clock latencies, path delays and edge slacks directly
// from the netlist and the delay model with its own traversals, extracts the
// FULL sequential graph up front (every launch→capture pair, no dynamic
// extraction, no pruning), and computes the optimal worst-slack latency
// assignment by binary search on the minimum balance with a Bellman–Ford
// feasibility inner loop (solve.go) — the classical CSS formulation the
// paper's iterative algorithm approximates. check.go bridges the two worlds:
// it consumes a schedule produced against a timing.State and verifies it
// against this package's independent recomputation.
package oracle

import (
	"fmt"
	"math"

	"iterskew/internal/delay"
	"iterskew/internal/netlist"
)

// Edge is one full-graph sequential edge: the extreme (max for the late
// graph, min for the early graph) clock-edge-to-endpoint path delay between
// a launch (flip-flop or input port) and a capture (flip-flop or output
// port). Delay follows the same convention as the timer's extraction: it
// excludes the launch clock latency but includes clk→Q (and, for ports, the
// external input delay), so slack arithmetic needs only the latencies on
// top.
type Edge struct {
	Launch  netlist.CellID
	Capture netlist.CellID
	Delay   float64
}

// Graph is the full sequential graph of a design under one delay model,
// with independently recomputed clock-network latencies.
type Graph struct {
	D *netlist.Design
	M delay.Model

	// Period is the clock period every late slack is evaluated against.
	// Extract sets it to the design's; ExtractAt to the corner's — which is
	// what lets one oracle instance check each corner of a multi-corner
	// schedule independently.
	Period float64

	// Late and Early hold one edge per connected (launch, capture) pair:
	// the worst setup-path delay and the best hold-path delay respectively.
	Late  []Edge
	Early []Edge

	// BaseLat is the clock-network arrival per flip-flop (zero for
	// flip-flops not reached by the clock tree).
	BaseLat map[netlist.CellID]float64

	dEarly, dLate float64
}

// pinArc is one data-graph arc with its underated delay.
type pinArc struct {
	to netlist.PinID
	d  float64
}

// Extract builds the full sequential graph of a design: for every launch it
// propagates max and min path delays over the combinational network and
// records one edge per reachable endpoint. It fails on combinational cycles
// (which have no static timing interpretation).
func Extract(d *netlist.Design, m delay.Model) (*Graph, error) {
	return ExtractAt(d, m, 0, 0, 0)
}

// ExtractAt is Extract under one analysis corner: a what-if clock period
// (0 means the design's) and early/late derate overrides (0 keeps the
// model's). It is the per-corner entry point for checking a multi-corner
// schedule: build one oracle graph per corner and verify the single shared
// latency assignment against each.
func ExtractAt(d *netlist.Design, m delay.Model, period, dEarly, dLate float64) (*Graph, error) {
	if period == 0 {
		period = d.Period
	}
	if dEarly == 0 {
		dEarly = m.DerateEarly
	}
	if dLate == 0 {
		dLate = m.DerateLate
	}
	g := &Graph{
		D:       d,
		M:       m,
		Period:  period,
		BaseLat: make(map[netlist.CellID]float64, len(d.FFs)),
		dEarly:  dEarly,
		dLate:   dLate,
	}
	if g.dEarly == 0 {
		g.dEarly = 1
	}
	if g.dLate == 0 {
		g.dLate = 1
	}

	// Net loads, computed once (clock nets included, for the latency
	// derivation below).
	loads := make([]float64, len(d.Nets))
	for n := range d.Nets {
		loads[n] = m.NetLoad(d, netlist.NetID(n))
	}

	g.computeClockLatencies(loads)

	// Data-graph arcs: driver→sink wire arcs for every non-clock net, plus
	// input→output cell arcs for every combinational gate. Clock cells
	// (LCBs, the root) and flip-flop CK pins are not part of the data graph.
	arcs := make([][]pinArc, len(d.Pins))
	isEndpoint := make([]bool, len(d.Pins))
	for _, ff := range d.FFs {
		isEndpoint[d.FFData(ff)] = true
	}
	for _, p := range d.OutPorts {
		isEndpoint[d.Cells[p].Pins[0]] = true
	}
	for n := range d.Nets {
		net := &d.Nets[n]
		if net.Driver == netlist.NoPin {
			continue
		}
		dk := d.Cells[d.Pins[net.Driver].Cell].Type.Kind
		if dk == netlist.KindLCB || dk == netlist.KindClockRoot {
			continue
		}
		for _, s := range net.Sinks {
			sc := d.Pins[s].Cell
			switch d.Cells[sc].Type.Kind {
			case netlist.KindLCB:
				continue
			case netlist.KindFF:
				if s != d.FFData(sc) {
					continue // CK pin: clock network, not data
				}
			}
			arcs[net.Driver] = append(arcs[net.Driver], pinArc{
				to: s,
				d:  m.SinkWireDelay(d, netlist.NetID(n), s),
			})
		}
	}
	for c := range d.Cells {
		cell := &d.Cells[c]
		if cell.Type.Kind != netlist.KindComb {
			continue
		}
		out := d.OutPin(netlist.CellID(c))
		var load float64
		if on := d.Pins[out].Net; on != netlist.NoNet {
			load = loads[on]
		}
		cd := m.CellDelay(cell.Type, load)
		for _, p := range cell.Pins {
			if d.Pins[p].Dir == netlist.DirIn {
				arcs[p] = append(arcs[p], pinArc{to: out, d: cd})
			}
		}
	}

	order, err := topoPins(len(d.Pins), arcs)
	if err != nil {
		return nil, err
	}

	// One max- and one min-propagation per launch, in topological order
	// over the reachable pins only (stamped distances).
	dist := make([]float64, len(d.Pins))
	stamp := make([]int32, len(d.Pins))
	var cur int32

	trace := func(src netlist.PinID, launch netlist.CellID, late bool, base float64, dst []Edge) []Edge {
		der := g.dLate
		if !late {
			der = g.dEarly
		}
		cur++
		dist[src] = 0
		stamp[src] = cur
		for _, p := range order {
			if stamp[p] != cur {
				continue
			}
			if isEndpoint[p] {
				dst = append(dst, Edge{Launch: launch, Capture: d.Pins[p].Cell, Delay: base + dist[p]})
				continue
			}
			dp := dist[p]
			for _, a := range arcs[p] {
				nd := dp + a.d*der
				if stamp[a.to] != cur {
					stamp[a.to] = cur
					dist[a.to] = nd
				} else if late && nd > dist[a.to] {
					dist[a.to] = nd
				} else if !late && nd < dist[a.to] {
					dist[a.to] = nd
				}
			}
		}
		return dst
	}

	launch := func(c netlist.CellID) {
		var src netlist.PinID
		if d.Cells[c].Type.Kind == netlist.KindFF {
			src = d.FFQ(c)
		} else {
			src = d.OutPin(c)
		}
		var load float64
		if n := d.Pins[src].Net; n != netlist.NoNet {
			load = loads[n]
		}
		t := d.Cells[c].Type
		if t.Kind == netlist.KindFF {
			// clk→Q is a data arc: fully derated, like the timer's source
			// arrival.
			g.Late = trace(src, c, true, (t.ClkToQ+t.DriveRes*load)*g.dLate, g.Late)
			g.Early = trace(src, c, false, (t.ClkToQ+t.DriveRes*load)*g.dEarly, g.Early)
		} else {
			// Input port: the external arrival offset is a constraint, not a
			// delay — no derate on InDelay.
			g.Late = trace(src, c, true, d.InDelay[c]+t.DriveRes*load*g.dLate, g.Late)
			g.Early = trace(src, c, false, d.InDelay[c]+t.DriveRes*load*g.dEarly, g.Early)
		}
	}
	for _, ff := range d.FFs {
		launch(ff)
	}
	for _, p := range d.InPorts {
		launch(p)
	}
	return g, nil
}

// computeClockLatencies re-derives the clock-network arrival at every
// flip-flop: root cell delay, the CTS-balanced root→LCB level (every LCB
// sees the farthest branch of an idealized H-tree), the LCB cell delay under
// its output load, and the LCB→FF branch wire. Clock latencies are not
// derated.
func (g *Graph) computeClockLatencies(loads []float64) {
	d := g.D
	if d.ClockRoot == netlist.NoCell {
		return
	}
	rootNet := d.Pins[d.OutPin(d.ClockRoot)].Net
	if rootNet == netlist.NoNet {
		return
	}
	rootDelay := g.M.CellDelay(d.Cells[d.ClockRoot].Type, loads[rootNet])
	balanced := 0.0
	for _, s := range d.Nets[rootNet].Sinks {
		if w := g.M.SinkWireDelay(d, rootNet, s); w > balanced {
			balanced = w
		}
	}
	for _, lcb := range d.LCBs {
		if d.Pins[d.LCBIn(lcb)].Net != rootNet {
			continue
		}
		outNet := d.Pins[d.LCBOut(lcb)].Net
		if outNet == netlist.NoNet {
			continue
		}
		atOut := rootDelay + balanced + g.M.CellDelay(d.Cells[lcb].Type, loads[outNet])
		for _, ck := range d.Nets[outNet].Sinks {
			ff := d.Pins[ck].Cell
			if d.Cells[ff].Type.Kind == netlist.KindFF {
				g.BaseLat[ff] = atOut + g.M.SinkWireDelay(d, outNet, ck)
			}
		}
	}
}

// topoPins orders the data pins topologically over the arc lists, reporting
// combinational cycles as an error.
func topoPins(np int, arcs [][]pinArc) ([]netlist.PinID, error) {
	indeg := make([]int32, np)
	active := make([]bool, np)
	for p := range arcs {
		if len(arcs[p]) > 0 {
			active[p] = true
		}
		for _, a := range arcs[p] {
			indeg[a.to]++
			active[a.to] = true
		}
	}
	order := make([]netlist.PinID, 0, np)
	total := 0
	for p := 0; p < np; p++ {
		if !active[p] {
			continue
		}
		total++
		if indeg[p] == 0 {
			order = append(order, netlist.PinID(p))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, a := range arcs[order[i]] {
			indeg[a.to]--
			if indeg[a.to] == 0 {
				order = append(order, a.to)
			}
		}
	}
	if len(order) != total {
		return nil, fmt.Errorf("oracle: combinational cycle among data pins")
	}
	return order, nil
}

// period resolves the graph's analysis period, falling back to the design's
// for hand-built Graph literals that never set the field.
func (g *Graph) period() float64 {
	if g.Period != 0 {
		return g.Period
	}
	return g.D.Period
}

// Latency returns a sequential cell's effective clock latency under an
// extra-latency assignment: clock-network arrival plus extra for flip-flops,
// the virtual-clock PortLatency for ports.
func (g *Graph) Latency(c netlist.CellID, extra map[netlist.CellID]float64) float64 {
	if g.D.Cells[c].Type.Kind == netlist.KindFF {
		return g.BaseLat[c] + extra[c]
	}
	return g.D.PortLatency
}

// SlackOf evaluates the slack of a (launch, capture, delay) triple under an
// extra-latency assignment, independently of the timer (Eqs 1–2):
//
//	late:  l_capture + T − setup − (l_launch + delay)
//	early: (l_launch + delay) − (l_capture + hold)
//
// Output ports use their external setup margin in place of setup and zero
// hold, exactly as the timer does.
func (g *Graph) SlackOf(launch, capture netlist.CellID, pathDelay float64, late bool, extra map[netlist.CellID]float64) float64 {
	d := g.D
	lL := g.Latency(launch, extra)
	lC := g.Latency(capture, extra)
	var setup, hold float64
	if d.Cells[capture].Type.Kind == netlist.KindFF {
		setup = d.Cells[capture].Type.Setup
		hold = d.Cells[capture].Type.Hold
	} else {
		setup = d.OutDelay[capture]
	}
	if late {
		return lC + g.period() - setup - (lL + pathDelay)
	}
	return (lL + pathDelay) - (lC + hold)
}

// EdgeSlack evaluates a full-graph edge's slack under an extra-latency
// assignment.
func (g *Graph) EdgeSlack(e Edge, late bool, extra map[netlist.CellID]float64) float64 {
	return g.SlackOf(e.Launch, e.Capture, e.Delay, late, extra)
}

// EndpointSlacks recomputes the worst slack of every endpoint (flip-flop D
// checks and output ports) from the full graph under an extra-latency
// assignment. Endpoints with no incoming paths have +Inf slack, matching the
// timer.
func (g *Graph) EndpointSlacks(late bool, extra map[netlist.CellID]float64) map[netlist.CellID]float64 {
	out := make(map[netlist.CellID]float64, len(g.D.FFs)+len(g.D.OutPorts))
	for _, ff := range g.D.FFs {
		out[ff] = math.Inf(1)
	}
	for _, p := range g.D.OutPorts {
		out[p] = math.Inf(1)
	}
	edges := g.Late
	if !late {
		edges = g.Early
	}
	for _, e := range edges {
		if s := g.EdgeSlack(e, late, extra); s < out[e.Capture] {
			out[e.Capture] = s
		}
	}
	return out
}

// WorstSlack returns the minimum endpoint slack of the chosen check type
// under an extra-latency assignment (+Inf when the graph has no edges).
func (g *Graph) WorstSlack(late bool, extra map[netlist.CellID]float64) float64 {
	worst := math.Inf(1)
	edges := g.Late
	if !late {
		edges = g.Early
	}
	for _, e := range edges {
		if s := g.EdgeSlack(e, late, extra); s < worst {
			worst = s
		}
	}
	return worst
}
