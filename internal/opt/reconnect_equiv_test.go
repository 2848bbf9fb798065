package opt_test

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/netlist"
	"iterskew/internal/opt"
	"iterskew/internal/timing"
)

// TestReconnectModelMatchesPerTrial runs every Reconnect pass both ways, on
// two clones in lockstep: one forced onto the launch→capture model, one
// forced to Update per trial. Over core early then late schedules on the 8
// profiles at scale 0.005, and a late one on the grid design, every
// ReconnectResult (ResidualAbs bits included), every flip-flop's LCB, and
// every pin's arrivals and every base latency after each pass must be
// identical.
func TestReconnectModelMatchesPerTrial(t *testing.T) {
	type pass struct {
		name  string
		d     *netlist.Design
		modes []timing.Mode
	}
	passes := []pass{{"grid", opt.BuildGrid(t, 300, 20, 24), []timing.Mode{timing.Late}}}
	for _, name := range bench.SuperblueNames() {
		p, err := bench.Superblue(name, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		d, err := bench.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		passes = append(passes, pass{name, d, []timing.Mode{timing.Early, timing.Late}})
	}
	var trials, reverted int
	for _, ps := range passes {
		var tms [2]*timing.State
		for i := range tms {
			tm, err := timing.New(ps.d.Clone(), delay.Default())
			if err != nil {
				t.Fatal(err)
			}
			tms[i] = tm
		}
		for _, mode := range ps.modes {
			step := fmt.Sprintf("%s %v", ps.name, mode)
			var res [2]*opt.ReconnectResult
			var targets [2]map[netlist.CellID]float64
			for i, path := range []int{+1, -1} {
				sr, err := core.Schedule(tms[i], core.Options{Mode: mode})
				if err != nil {
					t.Fatal(err)
				}
				targets[i] = sr.Target
				restore := opt.SetTrialPath(path)
				res[i] = opt.Reconnect(tms[i], sr.Target, opt.ReconnectOptions{})
				restore()
			}
			if !maps.Equal(targets[0], targets[1]) {
				t.Fatalf("%s: the two states scheduled different targets", step)
			}
			m, p := *res[0], *res[1]
			m.Elapsed, p.Elapsed = 0, 0
			if m.Attempted != p.Attempted || m.Reconnected != p.Reconnected || m.Reverted != p.Reverted ||
				math.Float64bits(m.ResidualAbs) != math.Float64bits(p.ResidualAbs) {
				t.Fatalf("%s: model %+v, per-trial %+v", step, m, p)
			}
			trials += m.Reconnected + m.Reverted
			reverted += m.Reverted
			requireSameTiming(t, step, tms[0], tms[1])
		}
	}
	t.Logf("%d trials, %d reverted", trials, reverted)
	if reverted == 0 || trials == reverted {
		t.Fatalf("passes cover too little: %d trials, %d reverted", trials, reverted)
	}
}

// requireSameTiming asserts two states over clones of one design give every
// flip-flop the same LCB and base latency and every pin the same arrivals,
// bit for bit.
func requireSameTiming(t *testing.T, step string, a, b *timing.State) {
	t.Helper()
	for _, ff := range a.D.FFs {
		if la, lb := a.D.LCBofFF(ff), b.D.LCBofFF(ff); la != lb {
			t.Fatalf("%s: ff %d on LCB %d, per-trial %d", step, ff, la, lb)
		}
		if la, lb := a.BaseLatency(ff), b.BaseLatency(ff); math.Float64bits(la) != math.Float64bits(lb) {
			t.Fatalf("%s: ff %d base latency %v, per-trial %v", step, ff, la, lb)
		}
	}
	for p := range a.D.Pins {
		pin := netlist.PinID(p)
		if math.Float64bits(a.ArrivalMax(pin)) != math.Float64bits(b.ArrivalMax(pin)) ||
			math.Float64bits(a.ArrivalMin(pin)) != math.Float64bits(b.ArrivalMin(pin)) {
			t.Fatalf("%s: pin %d arrivals (%v, %v), per-trial (%v, %v)", step, p,
				a.ArrivalMin(pin), a.ArrivalMax(pin), b.ArrivalMin(pin), b.ArrivalMax(pin))
		}
	}
}
