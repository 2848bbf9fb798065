package timing

import (
	"iterskew/internal/netlist"
)

// CSR adjacency cache.
//
// The data-graph topology is static after New (cell moves and LCB–FF
// reconnection change delays and clock connectivity, never data connectivity),
// so the timer flattens both arc directions into compressed-sparse-row arrays
// once and every propagation, levelization and extraction walk iterates plain
// slices instead of re-deriving fanin/fanout through net and cell probing.
//
// An arc stores only its target pin. Its delay lives in the state's per-pin
// delay array (see State.dIn), keyed by the arc's head — the pin it enters:
//
//   - wire arc (driver → sink): dIn[sink], the sink's branch delay;
//   - cell arc (combinational input → output): dIn[out], the cell delay
//     under the output net's current load, shared by every input of the
//     cell.
//
// So a forward arc's delay is dIn[a.To], and every fanin arc of pin p shares
// dIn[p]: an input pin has exactly one wire fanin, and an output pin's cell
// arcs share one delay. The array also holds the load-dependent launch delay
// of each source (FF Q, input port), whose fanin is empty. Two CSR facts keep
// the hot loops off the netlist: a pin with fanin arcs is never a source, and
// a pin with fanout arcs is never an endpoint.
type arcRef struct {
	To netlist.PinID
}

// buildCSR flattens the data timing graph. classifyPins must have run.
func (g *Graph) buildCSR() {
	d := g.D
	np := len(d.Pins)
	g.fwdOff = make([]int32, np+1)
	g.bwdOff = make([]int32, np+1)

	// Counting pass.
	for i := 0; i < np; i++ {
		if !g.inData[i] {
			continue
		}
		pin := &d.Pins[i]
		if pin.Dir == netlist.DirIn {
			// Fanin: the driver of the pin's net, when in the data graph.
			if pin.Net != netlist.NoNet {
				if drv := d.Nets[pin.Net].Driver; drv != netlist.NoPin && g.inData[drv] {
					g.bwdOff[i+1]++
					g.fwdOff[drv+1]++
				}
			}
			// Fanout: the owning cell's output arc (combinational cells only).
			cell := &d.Cells[pin.Cell]
			if cell.Type.Kind == netlist.KindComb {
				g.fwdOff[i+1]++
				out := cell.Pins[len(cell.Pins)-1]
				g.bwdOff[out+1]++
			}
		}
	}
	for i := 0; i < np; i++ {
		g.fwdOff[i+1] += g.fwdOff[i]
		g.bwdOff[i+1] += g.bwdOff[i]
	}
	g.fwdArc = make([]arcRef, g.fwdOff[np])
	g.bwdArc = make([]arcRef, g.bwdOff[np])

	// Filling pass, preserving the historical iteration orders: wire fanout
	// in net-sink order, cell fanin in cell-input order.
	fc := make([]int32, np) // fill cursor per pin
	bc := make([]int32, np)
	for i := 0; i < np; i++ {
		if !g.inData[i] {
			continue
		}
		pin := &d.Pins[i]
		if pin.Dir == netlist.DirOut {
			// Wire fanout of an output pin, in sink order.
			if pin.Net != netlist.NoNet && !d.Nets[pin.Net].IsClock {
				for _, s := range d.Nets[pin.Net].Sinks {
					if g.inData[s] {
						g.fwdArc[g.fwdOff[i]+fc[i]] = arcRef{To: s}
						fc[i]++
						g.bwdArc[g.bwdOff[s]+bc[s]] = arcRef{To: netlist.PinID(i)}
						bc[s]++
					}
				}
			}
			// Cell fanin of a combinational output, in input order.
			cell := &d.Cells[pin.Cell]
			if cell.Type.Kind == netlist.KindComb {
				for k := 0; k < cell.Type.NumInputs; k++ {
					in := cell.Pins[k]
					g.bwdArc[g.bwdOff[i]+bc[i]] = arcRef{To: in}
					bc[i]++
					g.fwdArc[g.fwdOff[in]+fc[in]] = arcRef{To: netlist.PinID(i)}
					fc[in]++
				}
			}
		}
	}
}

// faninArcs returns the packed fanin arcs of p (empty for non-data pins).
func (g *Graph) faninArcs(p netlist.PinID) []arcRef {
	return g.bwdArc[g.bwdOff[p]:g.bwdOff[p+1]]
}

// fanoutArcs returns the packed fanout arcs of p.
func (g *Graph) fanoutArcs(p netlist.PinID) []arcRef {
	return g.fwdArc[g.fwdOff[p]:g.fwdOff[p+1]]
}

// forEachFanin invokes f for every data arc entering pin p with the arc's
// current delay. Hot paths iterate the CSR directly; this closure form
// remains for tests.
func (t *Timer) forEachFanin(p netlist.PinID, f func(q netlist.PinID, d float64)) {
	for _, a := range t.faninArcs(p) {
		f(a.To, t.dIn[p])
	}
}
