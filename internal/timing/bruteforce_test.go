package timing

import (
	"math"
	"math/rand"
	"testing"

	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
)

// randomDesign builds a random small placed DAG: nFF flip-flops on one LCB,
// random gate chains and merges between them, fully connected.
func randomDesign(t *testing.T, rng *rand.Rand, nFF int) *netlist.Design {
	t.Helper()
	lib := netlist.StdLib()
	d := netlist.NewDesign("rand", 3000)
	d.Die = geom.RectOf(geom.Pt(0, 0), geom.Pt(2000, 2000))

	pos := func() geom.Point {
		return geom.Pt(rng.Float64()*2000, rng.Float64()*2000)
	}
	root := d.AddCell("root", lib.Get("CLKROOT"), pos())
	lcb := d.AddCell("lcb", lib.Get("LCB"), pos())
	in := d.AddCell("in", lib.Get("PORTIN"), pos())
	out := d.AddCell("out", lib.Get("PORTOUT"), pos())

	var ffs []netlist.CellID
	var cks []netlist.PinID
	for i := 0; i < nFF; i++ {
		ff := d.AddCell("ff", lib.Get("DFF"), pos())
		ffs = append(ffs, ff)
		cks = append(cks, d.FFClock(ff))
	}

	// Source pool: pins that can drive logic (ports, FF Qs, gate outputs).
	srcs := []netlist.PinID{d.OutPin(in)}
	for _, ff := range ffs {
		srcs = append(srcs, d.FFQ(ff))
	}
	// Random gates, each fed by earlier sources only (acyclic by
	// construction).
	nGates := 4 + rng.Intn(12)
	for i := 0; i < nGates; i++ {
		ct := lib.Comb[rng.Intn(len(lib.Comb))]
		g := d.AddCell("g", ct, pos())
		for k := 0; k < ct.NumInputs; k++ {
			drv := srcs[rng.Intn(len(srcs))]
			b := d.Pins[drv].Net
			if b == netlist.NoNet {
				d.Connect("n", drv, d.Cells[g].Pins[k])
			} else {
				d.AddSink(b, d.Cells[g].Pins[k])
			}
		}
		srcs = append(srcs, d.OutPin(g))
	}
	// Every FF D and the out port get a random driver.
	sink := func(p netlist.PinID) {
		drv := srcs[rng.Intn(len(srcs))]
		if b := d.Pins[drv].Net; b == netlist.NoNet {
			d.Connect("n", drv, p)
		} else {
			d.AddSink(b, p)
		}
	}
	for _, ff := range ffs {
		sink(d.FFData(ff))
	}
	sink(d.Cells[out].Pins[0])

	cr := d.Connect("cr", d.OutPin(root), d.LCBIn(lcb))
	d.Nets[cr].IsClock = true
	cl := d.Connect("cl", d.LCBOut(lcb), cks...)
	d.Nets[cl].IsClock = true
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

// bruteArrivals enumerates every path by recursion and returns the exact
// min/max arrival at a pin under the timer's own arc delays.
func bruteArrivals(tm *State, p netlist.PinID) (float64, float64) {
	if srcE, srcL, ok := tm.sourceArrival(p); ok {
		return srcE, srcL
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	tm.forEachFanin(p, func(q netlist.PinID, d float64) {
		e, l := bruteArrivals(tm, q)
		if v := e + d*tm.dEarly; v < mn {
			mn = v
		}
		if v := l + d*tm.dLate; v > mx {
			mx = v
		}
	})
	return mn, mx
}

// TestArrivalsMatchBruteForce: the levelized propagation must agree with
// exhaustive path enumeration, across random DAGs and both corners.
func TestArrivalsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		d := randomDesign(t, rng, 2+rng.Intn(4))
		model := delay.Default()
		if trial%2 == 1 {
			model = delay.Derated(0.92, 1.07)
		}
		tm, err := New(d, model)
		if err != nil {
			t.Fatal(err)
		}
		for e := range tm.Endpoints() {
			p := tm.Endpoints()[e].Pin
			if !tm.inData[p] {
				continue
			}
			bmn, bmx := bruteArrivals(tm, p)
			if math.IsInf(bmx, -1) != math.IsInf(tm.ArrivalMax(p), -1) {
				t.Fatalf("trial %d: reachability mismatch at pin %d", trial, p)
			}
			if !math.IsInf(bmx, -1) && math.Abs(bmx-tm.ArrivalMax(p)) > 1e-6 {
				t.Fatalf("trial %d: atMax %v, brute force %v", trial, tm.ArrivalMax(p), bmx)
			}
			if !math.IsInf(bmn, 1) && math.Abs(bmn-tm.ArrivalMin(p)) > 1e-6 {
				t.Fatalf("trial %d: atMin %v, brute force %v", trial, tm.ArrivalMin(p), bmn)
			}
		}
	}
}

// TestRequiredMatchBruteForce: backward required times against brute-force
// forward checks — the launch slack of each FF equals the min over its
// extracted edges' slacks.
func TestRequiredMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		d := randomDesign(t, rng, 2+rng.Intn(4))
		tm, err := New(d, delay.Default())
		if err != nil {
			t.Fatal(err)
		}
		for _, ff := range d.FFs {
			edges := tm.ExtractAllFrom(ff, Late, nil)
			want := math.Inf(1)
			for _, e := range edges {
				if s := tm.EdgeSlack(e); s < want {
					want = s
				}
			}
			got := tm.LaunchLateSlack(ff)
			if math.IsInf(want, 1) != math.IsInf(got, 1) {
				t.Fatalf("trial %d: launch slack reachability mismatch", trial)
			}
			if !math.IsInf(want, 1) && math.Abs(got-want) > 1e-6 {
				t.Fatalf("trial %d: LaunchLateSlack %v, edge min %v", trial, got, want)
			}
		}
	}
}
