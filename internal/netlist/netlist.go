// Package netlist models a placed gate-level netlist: standard cells,
// flip-flops, local clock buffers (LCBs), I/O ports, pins, and nets, plus the
// cell library that supplies their timing parameters.
//
// The model is deliberately close to the ICCAD-2015 incremental
// timing-driven-placement contest view of a design: every cell has a
// location, every flip-flop's clock pin is driven by exactly one LCB, and the
// LCBs are driven by a single clock root. Times are picoseconds,
// capacitances femtofarads, distances database units (DBU).
package netlist

import (
	"fmt"

	"iterskew/internal/geom"
)

// CellID, PinID and NetID index into Design.Cells, Design.Pins and
// Design.Nets respectively. The zero-th element is valid; use the No*
// sentinels for "absent".
type (
	CellID int32
	PinID  int32
	NetID  int32
)

// Sentinel values meaning "no such object".
const (
	NoCell CellID = -1
	NoPin  PinID  = -1
	NoNet  NetID  = -1
)

// CellKind classifies the behaviour of a cell type.
type CellKind uint8

// The cell kinds understood by the timer and the optimizers.
const (
	KindComb      CellKind = iota // combinational gate
	KindFF                        // D flip-flop (pins D, CK, Q)
	KindLCB                       // local clock buffer (pins CKIN, CKOUT)
	KindPortIn                    // primary input (single output pin)
	KindPortOut                   // primary output (single input pin)
	KindClockRoot                 // clock source (single output pin)
)

// String implements fmt.Stringer.
func (k CellKind) String() string {
	switch k {
	case KindComb:
		return "comb"
	case KindFF:
		return "ff"
	case KindLCB:
		return "lcb"
	case KindPortIn:
		return "in"
	case KindPortOut:
		return "out"
	case KindClockRoot:
		return "clkroot"
	}
	return fmt.Sprintf("CellKind(%d)", uint8(k))
}

// PinDir is the direction of a pin relative to its cell.
type PinDir uint8

// Pin directions.
const (
	DirIn PinDir = iota
	DirOut
)

// Conventional pin indices within Cell.Pins. Combinational cells have their
// inputs first and the single output last; the other kinds use these fixed
// positions.
const (
	FFPinD  = 0 // data input
	FFPinCK = 1 // clock input
	FFPinQ  = 2 // data output

	LCBPinIn  = 0 // clock input
	LCBPinOut = 1 // buffered clock output
)

// CellType carries the library timing parameters shared by all instances of
// a cell.
type CellType struct {
	Name string
	// Base is the function family name for drive-strength variants
	// ("INV" for INV_X2); equal to Name for the X1 member.
	Base      string
	Kind      CellKind
	NumInputs int     // combinational input count (0 for other kinds)
	Intrinsic float64 // intrinsic delay, ps
	DriveRes  float64 // output drive resistance, ps/fF (delay = Intrinsic + DriveRes*load)
	InputCap  float64 // capacitance of each input pin, fF

	// Flip-flop-only parameters (ps).
	ClkToQ float64
	Setup  float64
	Hold   float64

	// DelayTable, when non-empty, replaces the linear
	// Intrinsic + DriveRes·load delay with piecewise-linear interpolation
	// over load — an NLDM-lite characterization. Points must be sorted by
	// ascending Load; beyond the table the end segments extrapolate.
	DelayTable []DelayPoint
}

// DelayPoint is one (load, delay) characterization point of a DelayTable.
type DelayPoint struct {
	Load  float64 // fF
	Delay float64 // ps
}

// Cell is a placed instance of a CellType.
type Cell struct {
	Name  string
	Type  *CellType
	Pos   geom.Point
	Pins  []PinID // see the FFPin*/LCBPin* conventions above
	Fixed bool    // fixed cells (ports, clock root, LCBs) may not be moved
}

// Pin is one connection point of a cell.
type Pin struct {
	Cell CellID
	Net  NetID
	Dir  PinDir
	Cap  float64 // load presented to the driving net (input pins only)
}

// Net connects one driver pin to zero or more sink pins.
type Net struct {
	Name    string
	Driver  PinID
	Sinks   []PinID
	IsClock bool // part of the clock distribution network
}

// Design is a complete placed netlist plus its timing environment.
type Design struct {
	Name   string
	Period float64   // clock period, ps
	Die    geom.Rect // placement region

	// PortLatency is the virtual clock arrival used for I/O timing: input
	// ports launch at this time and output ports capture relative to it.
	// Setting it near the design's nominal clock insertion delay keeps
	// register-to-I/O paths comparable with register-to-register paths.
	PortLatency float64

	// InDelay is the external arrival offset of each input port relative to
	// the virtual clock (the set_input_delay of SDC). Missing entries are 0.
	InDelay map[CellID]float64
	// OutDelay is the external setup margin required at each output port
	// (the max-delay set_output_delay of SDC): the port's late required
	// time is PortLatency + Period − OutDelay. Missing entries are 0.
	OutDelay map[CellID]float64

	// Contest-style physical constraints.
	MaxDisp      float64 // maximum cell displacement from the input placement, DBU
	LCBMaxFanout int     // maximum flip-flops per LCB (50 in the paper)

	Cells []Cell
	Pins  []Pin
	Nets  []Net

	// Convenience indexes, maintained by the builder methods.
	FFs       []CellID
	LCBs      []CellID
	InPorts   []CellID
	OutPorts  []CellID
	ClockRoot CellID

	// OrigPos records the input placement for displacement accounting.
	OrigPos []geom.Point
}

// NewDesign returns an empty design with the given name and clock period.
func NewDesign(name string, period float64) *Design {
	return &Design{
		Name:         name,
		Period:       period,
		ClockRoot:    NoCell,
		LCBMaxFanout: 50,
	}
}

// AddCell instantiates t at pos and returns the new cell's ID. Pins are
// created according to the kind's conventions.
func (d *Design) AddCell(name string, t *CellType, pos geom.Point) CellID {
	id := CellID(len(d.Cells))
	c := Cell{Name: name, Type: t, Pos: pos}

	addPin := func(dir PinDir, cap float64) {
		pid := PinID(len(d.Pins))
		d.Pins = append(d.Pins, Pin{Cell: id, Net: NoNet, Dir: dir, Cap: cap})
		c.Pins = append(c.Pins, pid)
	}

	switch t.Kind {
	case KindComb:
		for i := 0; i < t.NumInputs; i++ {
			addPin(DirIn, t.InputCap)
		}
		addPin(DirOut, 0)
	case KindFF:
		addPin(DirIn, t.InputCap) // D
		addPin(DirIn, t.InputCap) // CK
		addPin(DirOut, 0)         // Q
	case KindLCB:
		addPin(DirIn, t.InputCap) // CKIN
		addPin(DirOut, 0)         // CKOUT
		c.Fixed = true
	case KindPortIn, KindClockRoot:
		addPin(DirOut, 0)
		c.Fixed = true
	case KindPortOut:
		addPin(DirIn, t.InputCap)
		c.Fixed = true
	}

	d.Cells = append(d.Cells, c)
	d.OrigPos = append(d.OrigPos, pos)

	switch t.Kind {
	case KindFF:
		d.FFs = append(d.FFs, id)
	case KindLCB:
		d.LCBs = append(d.LCBs, id)
	case KindPortIn:
		d.InPorts = append(d.InPorts, id)
	case KindPortOut:
		d.OutPorts = append(d.OutPorts, id)
	case KindClockRoot:
		d.ClockRoot = id
	}
	return id
}

// Connect creates a net driven by driver feeding sinks, and returns its ID.
func (d *Design) Connect(name string, driver PinID, sinks ...PinID) NetID {
	nid := NetID(len(d.Nets))
	d.Nets = append(d.Nets, Net{Name: name, Driver: driver, Sinks: append([]PinID(nil), sinks...)})
	d.Pins[driver].Net = nid
	for _, s := range sinks {
		d.Pins[s].Net = nid
	}
	return nid
}

// AddSink attaches pin as an additional sink of net.
func (d *Design) AddSink(net NetID, pin PinID) {
	d.Nets[net].Sinks = append(d.Nets[net].Sinks, pin)
	d.Pins[pin].Net = net
}

// MovePinToNet detaches pin from its current net (if any) and attaches it as
// a sink of dst. It is the primitive behind LCB–FF reconnection.
func (d *Design) MovePinToNet(pin PinID, dst NetID) {
	if cur := d.Pins[pin].Net; cur != NoNet {
		sinks := d.Nets[cur].Sinks
		for i, s := range sinks {
			if s == pin {
				d.Nets[cur].Sinks = append(sinks[:i], sinks[i+1:]...)
				break
			}
		}
	}
	d.AddSink(dst, pin)
}

// Pin accessors following the pin-index conventions.

// OutPin returns the single output pin of a cell (combinational output, FF Q,
// LCB CKOUT, input-port/clock-root output).
func (d *Design) OutPin(c CellID) PinID {
	cell := &d.Cells[c]
	switch cell.Type.Kind {
	case KindFF:
		return cell.Pins[FFPinQ]
	case KindLCB:
		return cell.Pins[LCBPinOut]
	default:
		return cell.Pins[len(cell.Pins)-1]
	}
}

// FFData returns the D pin of a flip-flop.
func (d *Design) FFData(ff CellID) PinID { return d.Cells[ff].Pins[FFPinD] }

// FFClock returns the CK pin of a flip-flop.
func (d *Design) FFClock(ff CellID) PinID { return d.Cells[ff].Pins[FFPinCK] }

// FFQ returns the Q pin of a flip-flop.
func (d *Design) FFQ(ff CellID) PinID { return d.Cells[ff].Pins[FFPinQ] }

// LCBIn returns the CKIN pin of an LCB.
func (d *Design) LCBIn(lcb CellID) PinID { return d.Cells[lcb].Pins[LCBPinIn] }

// LCBOut returns the CKOUT pin of an LCB.
func (d *Design) LCBOut(lcb CellID) PinID { return d.Cells[lcb].Pins[LCBPinOut] }

// PinPos returns the placement location of a pin (cells are treated as
// points; pin offsets are below the resolution of the delay model).
func (d *Design) PinPos(p PinID) geom.Point { return d.Cells[d.Pins[p].Cell].Pos }

// IsPort reports whether cell c is an I/O port, which the sequential graph
// treats as a supernode.
func (d *Design) IsPort(c CellID) bool {
	k := d.Cells[c].Type.Kind
	return k == KindPortIn || k == KindPortOut
}

// LCBofFF returns the LCB currently driving the flip-flop's clock pin, or
// NoCell if the clock pin is unconnected.
func (d *Design) LCBofFF(ff CellID) CellID {
	net := d.Pins[d.FFClock(ff)].Net
	if net == NoNet {
		return NoCell
	}
	return d.Pins[d.Nets[net].Driver].Cell
}

// LCBFanout returns the number of sinks on the LCB's output net.
func (d *Design) LCBFanout(lcb CellID) int {
	net := d.Pins[d.LCBOut(lcb)].Net
	if net == NoNet {
		return 0
	}
	return len(d.Nets[net].Sinks)
}

// NetHPWL returns the half-perimeter wirelength of a net.
func (d *Design) NetHPWL(n NetID) float64 {
	net := &d.Nets[n]
	r := geom.EmptyRect()
	if net.Driver != NoPin {
		r = r.Expand(d.PinPos(net.Driver))
	}
	for _, s := range net.Sinks {
		r = r.Expand(d.PinPos(s))
	}
	return r.HalfPerimeter()
}

// HPWL returns the total half-perimeter wirelength over all nets.
func (d *Design) HPWL() float64 {
	var sum float64
	for i := range d.Nets {
		sum += d.NetHPWL(NetID(i))
	}
	return sum
}

// Displacement returns the Manhattan distance between a cell's current and
// original positions.
func (d *Design) Displacement(c CellID) float64 {
	return d.Cells[c].Pos.Manhattan(d.OrigPos[c])
}

// SwapType replaces a cell's type with a footprint-compatible variant (same
// kind and input count), updating the input pins' load capacitances. It
// returns false and does nothing for incompatible types.
func (d *Design) SwapType(c CellID, t *CellType) bool {
	cell := &d.Cells[c]
	if t.Kind != cell.Type.Kind || t.NumInputs != cell.Type.NumInputs {
		return false
	}
	cell.Type = t
	for _, p := range cell.Pins {
		if d.Pins[p].Dir == DirIn {
			d.Pins[p].Cap = t.InputCap
		}
	}
	return true
}

// MoveCell relocates a movable cell. It returns false (and does nothing) for
// fixed cells or when the target violates the displacement constraint.
func (d *Design) MoveCell(c CellID, pos geom.Point) bool {
	cell := &d.Cells[c]
	if cell.Fixed {
		return false
	}
	if d.MaxDisp > 0 && pos.Manhattan(d.OrigPos[c]) > d.MaxDisp {
		return false
	}
	if !d.Die.Empty() && !d.Die.Contains(pos) {
		return false
	}
	cell.Pos = pos
	return true
}

// Clone returns a deep copy of the design, so several optimization methods
// can start from the same input solution.
func (d *Design) Clone() *Design {
	c := *d
	c.Cells = make([]Cell, len(d.Cells))
	copy(c.Cells, d.Cells)
	for i := range c.Cells {
		c.Cells[i].Pins = append([]PinID(nil), d.Cells[i].Pins...)
	}
	c.Pins = append([]Pin(nil), d.Pins...)
	c.Nets = make([]Net, len(d.Nets))
	copy(c.Nets, d.Nets)
	for i := range c.Nets {
		c.Nets[i].Sinks = append([]PinID(nil), d.Nets[i].Sinks...)
	}
	c.FFs = append([]CellID(nil), d.FFs...)
	c.LCBs = append([]CellID(nil), d.LCBs...)
	c.InPorts = append([]CellID(nil), d.InPorts...)
	c.OutPorts = append([]CellID(nil), d.OutPorts...)
	c.OrigPos = append([]geom.Point(nil), d.OrigPos...)
	if d.InDelay != nil {
		c.InDelay = make(map[CellID]float64, len(d.InDelay))
		for k, v := range d.InDelay {
			c.InDelay[k] = v
		}
	}
	if d.OutDelay != nil {
		c.OutDelay = make(map[CellID]float64, len(d.OutDelay))
		for k, v := range d.OutDelay {
			c.OutDelay[k] = v
		}
	}
	return &c
}

// SetInputDelay assigns an external arrival offset to an input port.
func (d *Design) SetInputDelay(port CellID, delay float64) {
	if d.InDelay == nil {
		d.InDelay = map[CellID]float64{}
	}
	d.InDelay[port] = delay
}

// SetOutputDelay assigns an external setup margin to an output port.
func (d *Design) SetOutputDelay(port CellID, delay float64) {
	if d.OutDelay == nil {
		d.OutDelay = map[CellID]float64{}
	}
	d.OutDelay[port] = delay
}

// Validate performs structural sanity checks and returns the first problem
// found, or nil.
func (d *Design) Validate() error {
	for i := range d.Pins {
		p := &d.Pins[i]
		if p.Cell < 0 || int(p.Cell) >= len(d.Cells) {
			return fmt.Errorf("pin %d: bad cell %d", i, p.Cell)
		}
		if p.Net != NoNet && (p.Net < 0 || int(p.Net) >= len(d.Nets)) {
			return fmt.Errorf("pin %d: bad net %d", i, p.Net)
		}
	}
	for i := range d.Nets {
		n := &d.Nets[i]
		if n.Driver == NoPin {
			return fmt.Errorf("net %q: no driver", n.Name)
		}
		if d.Pins[n.Driver].Dir != DirOut {
			return fmt.Errorf("net %q: driver pin %d is not an output", n.Name, n.Driver)
		}
		if d.Pins[n.Driver].Net != NetID(i) {
			return fmt.Errorf("net %q: driver back-pointer mismatch", n.Name)
		}
		for _, s := range n.Sinks {
			if d.Pins[s].Dir != DirIn {
				return fmt.Errorf("net %q: sink pin %d is not an input", n.Name, s)
			}
			if d.Pins[s].Net != NetID(i) {
				return fmt.Errorf("net %q: sink %d back-pointer mismatch", n.Name, s)
			}
		}
	}
	for _, ff := range d.FFs {
		if d.Cells[ff].Type.Kind != KindFF {
			return fmt.Errorf("cell %d in FFs index is %v", ff, d.Cells[ff].Type.Kind)
		}
		if len(d.Cells[ff].Pins) != 3 {
			return fmt.Errorf("ff %d has %d pins", ff, len(d.Cells[ff].Pins))
		}
	}
	for _, lcb := range d.LCBs {
		if d.Cells[lcb].Type.Kind != KindLCB {
			return fmt.Errorf("cell %d in LCBs index is %v", lcb, d.Cells[lcb].Type.Kind)
		}
		if d.LCBMaxFanout > 0 && d.LCBFanout(lcb) > d.LCBMaxFanout {
			return fmt.Errorf("lcb %d fanout %d exceeds limit %d", lcb, d.LCBFanout(lcb), d.LCBMaxFanout)
		}
	}
	return nil
}

// Stats summarizes a design for reporting.
type Stats struct {
	Cells, FFs, LCBs, Nets, Pins, InPorts, OutPorts int
}

// Stats returns size statistics of the design.
func (d *Design) Stats() Stats {
	return Stats{
		Cells:    len(d.Cells),
		FFs:      len(d.FFs),
		LCBs:     len(d.LCBs),
		Nets:     len(d.Nets),
		Pins:     len(d.Pins),
		InPorts:  len(d.InPorts),
		OutPorts: len(d.OutPorts),
	}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("cells=%d ffs=%d lcbs=%d nets=%d pins=%d io=%d/%d",
		s.Cells, s.FFs, s.LCBs, s.Nets, s.Pins, s.InPorts, s.OutPorts)
}
