package netlist

import (
	"slices"
	"testing"
	"testing/quick"

	"iterskew/internal/geom"
)

// buildTiny constructs a minimal design:
//
//	in -> INV(g1) -> FF(a) -> NAND2(g2) -> FF(b) -> out
//	clkroot -> LCB(l1) -> {a.CK, b.CK}
func buildTiny(t *testing.T) (*Design, map[string]CellID) {
	t.Helper()
	lib := StdLib()
	d := NewDesign("tiny", 1000)
	d.Die = geom.RectOf(geom.Pt(0, 0), geom.Pt(1000, 1000))
	d.MaxDisp = 100

	ids := map[string]CellID{}
	ids["in"] = d.AddCell("in", lib.Get("PORTIN"), geom.Pt(0, 0))
	ids["g1"] = d.AddCell("g1", lib.Get("INV"), geom.Pt(100, 0))
	ids["a"] = d.AddCell("a", lib.Get("DFF"), geom.Pt(200, 0))
	ids["g2"] = d.AddCell("g2", lib.Get("NAND2"), geom.Pt(300, 0))
	ids["b"] = d.AddCell("b", lib.Get("DFF"), geom.Pt(400, 0))
	ids["out"] = d.AddCell("out", lib.Get("PORTOUT"), geom.Pt(500, 0))
	ids["root"] = d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 500))
	ids["l1"] = d.AddCell("l1", lib.Get("LCB"), geom.Pt(300, 500))

	d.Connect("n_in", d.OutPin(ids["in"]), d.Cells[ids["g1"]].Pins[0])
	d.Connect("n_g1", d.OutPin(ids["g1"]), d.FFData(ids["a"]))
	d.Connect("n_a", d.FFQ(ids["a"]), d.Cells[ids["g2"]].Pins[0], d.Cells[ids["g2"]].Pins[1])
	d.Connect("n_g2", d.OutPin(ids["g2"]), d.FFData(ids["b"]))
	d.Connect("n_b", d.FFQ(ids["b"]), d.Cells[ids["out"]].Pins[0])
	cn := d.Connect("clk_root", d.OutPin(ids["root"]), d.LCBIn(ids["l1"]))
	d.Nets[cn].IsClock = true
	ln := d.Connect("clk_l1", d.LCBOut(ids["l1"]), d.FFClock(ids["a"]), d.FFClock(ids["b"]))
	d.Nets[ln].IsClock = true

	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d, ids
}

func TestBuildTinyStats(t *testing.T) {
	d, _ := buildTiny(t)
	s := d.Stats()
	if s.Cells != 8 || s.FFs != 2 || s.LCBs != 1 || s.InPorts != 1 || s.OutPorts != 1 {
		t.Errorf("unexpected stats: %+v", s)
	}
	if s.Nets != 7 {
		t.Errorf("nets = %d, want 7", s.Nets)
	}
}

func TestPinConventions(t *testing.T) {
	d, ids := buildTiny(t)
	a := ids["a"]
	if d.Pins[d.FFData(a)].Dir != DirIn {
		t.Error("FF D pin not input")
	}
	if d.Pins[d.FFClock(a)].Dir != DirIn {
		t.Error("FF CK pin not input")
	}
	if d.Pins[d.FFQ(a)].Dir != DirOut {
		t.Error("FF Q pin not output")
	}
	if d.OutPin(a) != d.FFQ(a) {
		t.Error("OutPin(FF) != FFQ")
	}
	l1 := ids["l1"]
	if d.OutPin(l1) != d.LCBOut(l1) {
		t.Error("OutPin(LCB) != LCBOut")
	}
	g2 := ids["g2"]
	if d.Pins[d.OutPin(g2)].Dir != DirOut {
		t.Error("comb OutPin is not an output")
	}
	if n := len(d.Cells[g2].Pins); n != 3 {
		t.Errorf("NAND2 pin count = %d, want 3", n)
	}
}

func TestLCBofFF(t *testing.T) {
	d, ids := buildTiny(t)
	if got := d.LCBofFF(ids["a"]); got != ids["l1"] {
		t.Errorf("LCBofFF(a) = %d, want %d", got, ids["l1"])
	}
	if got := d.LCBFanout(ids["l1"]); got != 2 {
		t.Errorf("LCBFanout = %d, want 2", got)
	}
}

func TestMovePinToNet(t *testing.T) {
	d, ids := buildTiny(t)
	lib := StdLib()
	// Add a second LCB and reconnect FF b to it.
	l2 := d.AddCell("l2", lib.Get("LCB"), geom.Pt(600, 500))
	d.AddSink(d.Pins[d.OutPin(ids["root"])].Net, d.LCBIn(l2))
	n2 := d.Connect("clk_l2", d.LCBOut(l2))
	d.Nets[n2].IsClock = true

	ck := d.FFClock(ids["b"])
	d.MovePinToNet(ck, n2)

	if got := d.LCBofFF(ids["b"]); got != l2 {
		t.Errorf("after reconnection LCBofFF(b) = %d, want %d", got, l2)
	}
	if got := d.LCBFanout(ids["l1"]); got != 1 {
		t.Errorf("old LCB fanout = %d, want 1", got)
	}
	if got := d.LCBFanout(l2); got != 1 {
		t.Errorf("new LCB fanout = %d, want 1", got)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after reconnection: %v", err)
	}
}

func TestMoveCell(t *testing.T) {
	d, ids := buildTiny(t)
	g1 := ids["g1"]
	if !d.MoveCell(g1, geom.Pt(150, 20)) {
		t.Fatal("legal move rejected")
	}
	if d.Displacement(g1) != 70 {
		t.Errorf("Displacement = %v, want 70", d.Displacement(g1))
	}
	// Exceeds MaxDisp (100 from original (100,0)).
	if d.MoveCell(g1, geom.Pt(300, 0)) {
		t.Error("move beyond MaxDisp accepted")
	}
	// Outside die.
	if d.MoveCell(g1, geom.Pt(-50, 0)) {
		t.Error("move outside die accepted")
	}
	// Fixed cell.
	if d.MoveCell(ids["in"], geom.Pt(10, 10)) {
		t.Error("moved a fixed cell")
	}
}

func TestHPWL(t *testing.T) {
	d, ids := buildTiny(t)
	// n_in spans (0,0)-(100,0): HPWL 100.
	nid := d.Pins[d.OutPin(ids["in"])].Net
	if got := d.NetHPWL(nid); got != 100 {
		t.Errorf("NetHPWL(n_in) = %v, want 100", got)
	}
	total := d.HPWL()
	var sum float64
	for i := range d.Nets {
		sum += d.NetHPWL(NetID(i))
	}
	if total != sum {
		t.Errorf("HPWL = %v, sum of nets = %v", total, sum)
	}
	if total <= 0 {
		t.Error("HPWL not positive")
	}
}

func TestCloneIndependence(t *testing.T) {
	d, ids := buildTiny(t)
	c := d.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	origHPWL := d.HPWL()
	if c.HPWL() != origHPWL {
		t.Fatal("clone HPWL differs")
	}
	// Mutate clone; original must be unaffected.
	c.MoveCell(ids["g1"], geom.Pt(150, 50))
	c.MovePinToNet(c.FFClock(ids["b"]), c.Pins[c.OutPin(ids["root"])].Net)
	if d.HPWL() != origHPWL {
		t.Error("mutating clone changed original HPWL")
	}
	if d.LCBofFF(ids["b"]) != ids["l1"] {
		t.Error("mutating clone changed original connectivity")
	}
	if d.Cells[ids["g1"]].Pos != d.OrigPos[ids["g1"]] {
		t.Error("mutating clone moved original cell")
	}

	// A clone's sink lists share one array. Grow and shrink them on a clone
	// and on a clone of a clone, empty net included, and compare each with
	// the same edits on a design built from scratch.
	src, ids := buildSpares(t)
	want, _ := buildSpares(t)
	before := sinksOf(src)
	c = src.Clone()
	cc := c.Clone()
	for _, x := range []*Design{want, c, cc} {
		editSinks(x, ids)
	}
	requireSinks(t, "clone", c, sinksOf(want))
	requireSinks(t, "clone of a clone", cc, sinksOf(want))
	requireSinks(t, "source", src, before)

	small, _ := buildTiny(t)
	large := buildWide(4000)
	if a, b := testing.AllocsPerRun(5, func() { small.Clone() }), testing.AllocsPerRun(5, func() { large.Clone() }); a != b {
		t.Errorf("Clone allocates %v times for %d cells but %v times for %d", a, len(small.Cells), b, len(large.Cells))
	}
}

// buildSpares is buildTiny plus a flip-flop c whose pins are on no net and
// an LCB l2 whose output net has no sinks.
func buildSpares(t *testing.T) (*Design, map[string]CellID) {
	d, ids := buildTiny(t)
	lib := StdLib()
	ids["c"] = d.AddCell("c", lib.Get("DFF"), geom.Pt(600, 0))
	ids["l2"] = d.AddCell("l2", lib.Get("LCB"), geom.Pt(600, 500))
	d.AddSink(d.Pins[d.OutPin(ids["root"])].Net, d.LCBIn(ids["l2"]))
	n := d.Connect("clk_l2", d.LCBOut(ids["l2"]))
	d.Nets[n].IsClock = true
	return d, ids
}

// editSinks grows and shrinks sink lists of a buildSpares design: past
// their cloned length (n_a, n_g2, the empty clk_l2) and back within it
// (clk_l1).
func editSinks(d *Design, ids map[string]CellID) {
	out := func(name string) NetID { return d.Pins[d.OutPin(ids[name])].Net }
	a, b, c := ids["a"], ids["b"], ids["c"]
	d.AddSink(out("a"), d.FFData(c))
	d.MovePinToNet(d.FFData(c), out("g2"))
	d.MovePinToNet(d.FFClock(b), out("l2"))
	d.MovePinToNet(d.FFClock(a), out("l2"))
	d.MovePinToNet(d.FFClock(a), out("l1"))
	d.AddSink(out("l1"), d.FFClock(c))
}

// sinksOf copies every net's sink list.
func sinksOf(d *Design) [][]PinID {
	out := make([][]PinID, len(d.Nets))
	for i := range d.Nets {
		out[i] = append([]PinID(nil), d.Nets[i].Sinks...)
	}
	return out
}

// requireSinks fails unless every net of d has the sinks in want.
func requireSinks(t *testing.T, what string, d *Design, want [][]PinID) {
	t.Helper()
	got := sinksOf(d)
	if len(got) != len(want) {
		t.Fatalf("%s: %d nets, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("%s: net %s sinks %v, want %v", what, d.Nets[i].Name, got[i], want[i])
		}
	}
}

// buildWide builds a design of n inverter → flip-flop stages in a chain
// from an input port to an output port, 50 flip-flops per LCB.
func buildWide(n int) *Design {
	lib := StdLib()
	d := NewDesign("wide", 1000)
	in := d.AddCell("in", lib.Get("PORTIN"), geom.Pt(0, 0))
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	var lcbIns, cks []PinID
	prev := d.OutPin(in)
	for i := 0; i < n; i++ {
		g := d.AddCell("g", lib.Get("INV"), geom.Pt(float64(i), 0))
		ff := d.AddCell("f", lib.Get("DFF"), geom.Pt(float64(i), 1))
		d.Connect("ng", prev, d.Cells[g].Pins[0])
		d.Connect("nd", d.OutPin(g), d.FFData(ff))
		prev = d.FFQ(ff)
		cks = append(cks, d.FFClock(ff))
		if len(cks) == 50 || i == n-1 {
			lcb := d.AddCell("lcb", lib.Get("LCB"), geom.Pt(float64(i), 2))
			lcbIns = append(lcbIns, d.LCBIn(lcb))
			d.Connect("cl", d.LCBOut(lcb), cks...)
			cks = cks[:0]
		}
	}
	out := d.AddCell("out", lib.Get("PORTOUT"), geom.Pt(float64(n), 0))
	d.Connect("nout", prev, d.Cells[out].Pins[0])
	d.Connect("cr", d.OutPin(root), lcbIns...)
	return d
}

func TestValidateCatchesFanoutViolation(t *testing.T) {
	lib := StdLib()
	d := NewDesign("fan", 1000)
	d.LCBMaxFanout = 2
	root := d.AddCell("root", lib.Get("CLKROOT"), geom.Pt(0, 0))
	lcb := d.AddCell("lcb", lib.Get("LCB"), geom.Pt(0, 0))
	d.Connect("cr", d.OutPin(root), d.LCBIn(lcb))
	var cks []PinID
	for i := 0; i < 3; i++ {
		ff := d.AddCell("f", lib.Get("DFF"), geom.Pt(0, 0))
		cks = append(cks, d.FFClock(ff))
		// keep D/Q unconnected; Validate does not require full connectivity
	}
	d.Connect("cl", d.LCBOut(lcb), cks...)
	if err := d.Validate(); err == nil {
		t.Error("Validate accepted LCB fanout over limit")
	}
}

func TestStdLibShape(t *testing.T) {
	lib := StdLib()
	for _, name := range []string{"INV", "BUF", "NAND2", "DFF", "LCB", "PORTIN", "PORTOUT", "CLKROOT"} {
		if lib.Get(name) == nil {
			t.Errorf("missing type %s", name)
		}
	}
	ff := lib.Get("DFF")
	if ff.ClkToQ <= 0 || ff.Setup <= 0 || ff.Hold <= 0 {
		t.Error("DFF timing parameters must be positive")
	}
	if ff.Hold >= ff.ClkToQ+ff.Setup {
		t.Error("implausible DFF parameters")
	}
	for _, ct := range lib.Comb {
		if ct.NumInputs < 1 {
			t.Errorf("%s: no inputs", ct.Name)
		}
		if ct.Intrinsic <= 0 || ct.DriveRes <= 0 || ct.InputCap <= 0 {
			t.Errorf("%s: nonpositive parameters", ct.Name)
		}
	}
}

func TestDisplacementProperty(t *testing.T) {
	d, ids := buildTiny(t)
	g1 := ids["g1"]
	f := func(dx, dy int8) bool {
		p := d.OrigPos[g1].Add(geom.Pt(float64(dx), float64(dy)))
		ok := d.MoveCell(g1, p)
		if !ok {
			return true // rejected moves leave state legal by definition
		}
		return d.Displacement(g1) <= d.MaxDisp && d.Die.Contains(d.Cells[g1].Pos)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
