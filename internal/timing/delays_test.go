package timing_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"iterskew/internal/delay"
	"iterskew/internal/fuzz"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// modelDelay derives pin p's arc delay from scratch through delay.Model: a
// sink's wire delay, or a driver's delay under its net's load (0 on no net).
func modelDelay(d *netlist.Design, m delay.Model, p netlist.PinID) float64 {
	pin := &d.Pins[p]
	if pin.Dir == netlist.DirIn {
		if pin.Net == netlist.NoNet || d.Nets[pin.Net].Driver == netlist.NoPin {
			return 0
		}
		return m.SinkWireDelay(d, pin.Net, p)
	}
	var load float64
	if pin.Net != netlist.NoNet {
		load = m.NetLoad(d, pin.Net)
	}
	typ := d.Cells[pin.Cell].Type
	switch typ.Kind {
	case netlist.KindComb:
		return m.CellDelay(typ, load)
	case netlist.KindFF:
		return typ.ClkToQ + typ.DriveRes*load
	case netlist.KindPortIn:
		return typ.DriveRes * load
	}
	return 0
}

// requireDelaysMatchModel asserts every data pin's cached arc delay equals
// its from-scratch derivation bit for bit.
func requireDelaysMatchModel(t *testing.T, step string, g *timing.Graph, tm *timing.State) {
	t.Helper()
	got := tm.CopyAnalysis().DIn
	for p, in := range g.Slabs().InData {
		if !in {
			continue
		}
		want := modelDelay(g.D, g.M, netlist.PinID(p))
		if math.Float64bits(got[p]) != math.Float64bits(want) {
			t.Fatalf("%s: dIn[%d] = %v, want %v", step, p, got[p], want)
		}
	}
}

// requireDelaysEqual asserts two delay arrays agree bit for bit.
func requireDelaysEqual(t *testing.T, step string, got, want []float64) {
	t.Helper()
	for p := range want {
		if math.Float64bits(got[p]) != math.Float64bits(want[p]) {
			t.Fatalf("%s: dIn[%d] = %v, want %v", step, p, got[p], want[p])
		}
	}
}

// TestDelayArrayMatchesModel: after random moves, resizes, clock-pin
// reconnections and derate changes — plain Updates and trials, committed or
// rolled back, on the serial and the worker-pool paths — every data pin's
// cached arc delay equals a from-scratch derivation through delay.Model.
// States created before and after the steps still read the compile-time
// snapshot, so no state's writes reach the shared array.
func TestDelayArrayMatchesModel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			d, err := fuzz.Generate(fuzz.FromSeed(0))
			if err != nil {
				t.Fatal(err)
			}
			g, err := timing.Compile(d, delay.Default())
			if err != nil {
				t.Fatal(err)
			}
			snap := slices.Clone(g.Slabs().SnapDIn)
			bystander := g.NewState()
			tm := g.NewState()
			tm.SetWorkers(workers)
			requireDelaysMatchModel(t, "compile", g, tm)

			lib := netlist.StdLib()
			var movable, resizable, offNet []netlist.CellID
			for i := range d.Cells {
				c := netlist.CellID(i)
				cell := &d.Cells[i]
				if cell.Fixed {
					continue
				}
				switch cell.Type.Kind {
				case netlist.KindFF:
					movable = append(movable, c)
				case netlist.KindComb:
					movable = append(movable, c)
					resizable = append(resizable, c)
					if d.Pins[d.OutPin(c)].Net == netlist.NoNet {
						offNet = append(offNet, c)
					}
				}
			}
			if len(offNet) == 0 {
				t.Fatal("design has no combinational cell driving no net")
			}

			rng := rand.New(rand.NewSource(int64(workers)))
			resize := func(c netlist.CellID) func() {
				old := d.Cells[c].Type
				next := lib.Upsize(old)
				if next == nil {
					next = lib.Downsize(old)
				}
				if next == nil || !d.SwapType(c, next) {
					return nil
				}
				tm.DirtyCell(c)
				return func() { d.SwapType(c, old) }
			}
			// mutate applies one random design change and queues it on tm;
			// it returns the step's kind and a function reverting the design.
			mutate := func() (string, func()) {
				for {
					switch rng.Intn(4) {
					case 0:
						c := movable[rng.Intn(len(movable))]
						origin := d.Cells[c].Pos
						r := d.MaxDisp / 2
						if !d.MoveCell(c, origin.Add(geom.Pt((2*rng.Float64()-1)*r, (2*rng.Float64()-1)*r))) {
							continue
						}
						tm.DirtyCell(c)
						return "move", func() { d.MoveCell(c, origin) }
					case 1:
						if revert := resize(resizable[rng.Intn(len(resizable))]); revert != nil {
							return "resize", revert
						}
					case 2:
						if revert := resize(offNet[rng.Intn(len(offNet))]); revert != nil {
							return "resize-off-net", revert
						}
					default:
						ff := d.FFs[rng.Intn(len(d.FFs))]
						cur := d.LCBofFF(ff)
						to := d.LCBs[rng.Intn(len(d.LCBs))]
						if cur == netlist.NoCell || to == cur || d.Pins[d.LCBOut(to)].Net == netlist.NoNet {
							continue
						}
						ck := d.FFClock(ff)
						d.MovePinToNet(ck, d.Pins[d.LCBOut(to)].Net)
						tm.DirtyCell(ff)
						tm.DirtyCell(cur)
						tm.DirtyCell(to)
						return "reconnect", func() { d.MovePinToNet(ck, d.Pins[d.LCBOut(cur)].Net) }
					}
				}
			}

			for i := 0; i < 60; i++ {
				if i%15 == 14 {
					tm.SetDerates(0.9+0.05*rng.Float64(), 1.05+0.1*rng.Float64())
					requireDelaysMatchModel(t, fmt.Sprintf("step %d (derates)", i), g, tm)
					continue
				}
				how := []string{"update", "commit", "rollback"}[i%3]
				if how != "update" {
					tm.Checkpoint()
				}
				kind, revert := mutate()
				tm.Update()
				switch how {
				case "commit":
					tm.Commit()
				case "rollback":
					revert()
					tm.Rollback()
				}
				requireDelaysMatchModel(t, fmt.Sprintf("step %d (%s, %s)", i, kind, how), g, tm)
			}

			requireDelaysEqual(t, "state created before the steps", bystander.CopyAnalysis().DIn, snap)
			requireDelaysEqual(t, "state created after the steps", g.NewState().CopyAnalysis().DIn, snap)
			requireDelaysEqual(t, "graph snapshot", g.Slabs().SnapDIn, snap)
		})
	}
}
