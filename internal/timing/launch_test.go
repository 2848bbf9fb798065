package timing_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/delay"
	"iterskew/internal/fuzz"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// clockTrialDesign generates the design of one FuzzClockTrial input: for
// an even seed, a superblue profile at scale 0.002 with its generator seed
// offset; for an odd one, an adversarial netlist of internal/fuzz.
func clockTrialDesign(t *testing.T, seed int64) *netlist.Design {
	t.Helper()
	if seed%2 != 0 {
		d, err := fuzz.Generate(fuzz.FromSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	names := bench.SuperblueNames()
	p, err := bench.Superblue(names[uint64(seed/2)%uint64(len(names))], 0.002)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed += seed
	d, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkClockTrials runs random LCB–FF reconnection trials on two timers over
// clones of one design, in lockstep: state 0 decides each trial with Update
// and SlackDelta, state 1 with RetimeClock and the launch→capture model.
// Every trial's dTNS must agree in both modes within undo_test.go's 1e-6 +
// 1e-9·|TNS|, and both states commit or roll back alike, at random. After
// each pass, state 1's one Update must leave every base latency equal to
// state 0's, bit for bit, and every pin's arrivals within
// TestIncrementalMatchesFull's 1e-6. Between the two passes a cell moves,
// so the second pass runs on a rebuilt model.
func checkClockTrials(t *testing.T, seed int64) {
	d := clockTrialDesign(t, seed)
	var tms [2]*timing.State
	for i := range tms {
		tm, err := timing.New(d.Clone(), delay.Default())
		if err != nil {
			t.Fatal(err)
		}
		tms[i] = tm
	}
	rng := rand.New(rand.NewSource(seed))
	// Predictive latencies, so the model reads extra latencies too.
	for k := rng.Intn(8); k > 0; k-- {
		ff, l := d.FFs[rng.Intn(len(d.FFs))], 60*rng.Float64()-20
		for _, tm := range tms {
			tm.SetExtraLatency(ff, l)
		}
	}
	for _, tm := range tms {
		tm.Update()
	}
	var tried, kept int
	for pass := 0; pass < 2; pass++ {
		if pass == 1 && !moveSomeCell(rng, tms) {
			t.Logf("seed %d: no cell could move", seed)
		}
		model := tms[1].LaunchModel()
		for trial := 0; trial < 40; trial++ {
			ff := d.FFs[rng.Intn(len(d.FFs))]
			to := d.LCBs[rng.Intn(len(d.LCBs))]
			cur := tms[0].D.LCBofFF(ff)
			if cur == netlist.NoCell || to == cur || tms[0].D.Pins[tms[0].D.LCBOut(to)].Net == netlist.NoNet {
				continue
			}
			tried++
			step := fmt.Sprintf("seed %d pass %d trial %d", seed, pass, trial)
			var dTNS [2][2]float64
			for i, tm := range tms {
				td := tm.D
				tm.Checkpoint()
				td.MovePinToNet(td.FFClock(ff), td.Pins[td.LCBOut(to)].Net)
				tm.DirtyCell(ff)
				tm.DirtyCell(cur)
				tm.DirtyCell(to)
				if i == 0 {
					tm.Update()
					dTNS[i], _ = tm.SlackDelta()
				} else {
					tm.RetimeClock()
					dTNS[i] = model.SlackDelta()
				}
			}
			for _, m := range []timing.Mode{timing.Late, timing.Early} {
				_, tns := tms[0].WNSTNS(m)
				if math.Abs(dTNS[1][m]-dTNS[0][m]) > 1e-6+1e-9*math.Abs(tns) {
					t.Fatalf("%s %v: model dTNS %v, Update and SlackDelta %v", step, m, dTNS[1][m], dTNS[0][m])
				}
			}
			keep := rng.Intn(2) == 0
			for i, tm := range tms {
				if keep {
					tm.Commit()
					if i == 1 {
						model.Fold()
					}
					continue
				}
				td := tm.D
				td.MovePinToNet(td.FFClock(ff), td.Pins[td.LCBOut(cur)].Net)
				tm.Rollback()
			}
			if keep {
				kept++
			}
		}
		tms[1].Update()
		requireClockTrialsAgree(t, fmt.Sprintf("seed %d pass %d", seed, pass), tms[0], tms[1])
	}
	if tried == 0 || kept == 0 || kept == tried {
		t.Logf("seed %d: %d trials, %d kept", seed, tried, kept)
	}
}

// moveSomeCell moves one random movable combinational cell on both states'
// designs alike and updates both timers, so the delays the next model reads
// differ from the last one's. It reports whether a cell moved.
func moveSomeCell(rng *rand.Rand, tms [2]*timing.State) bool {
	d := tms[0].D
	r := d.MaxDisp / 2
	for try := 0; try < 100; try++ {
		c := netlist.CellID(rng.Intn(len(d.Cells)))
		if d.Cells[c].Fixed || d.Cells[c].Type.Kind != netlist.KindComb {
			continue
		}
		to := d.Cells[c].Pos.Add(geom.Pt((2*rng.Float64()-1)*r, (2*rng.Float64()-1)*r))
		if !tms[0].D.MoveCell(c, to) || !tms[1].D.MoveCell(c, to) {
			continue
		}
		for _, tm := range tms {
			tm.DirtyCell(c)
			tm.Update()
		}
		return true
	}
	return false
}

// requireClockTrialsAgree asserts the two states of checkClockTrials give
// every flip-flop the same base latency, bit for bit, and every pin the
// same arrivals within 1e-6.
func requireClockTrialsAgree(t *testing.T, step string, a, b *timing.State) {
	t.Helper()
	for _, ff := range a.D.FFs {
		if la, lb := a.BaseLatency(ff), b.BaseLatency(ff); math.Float64bits(la) != math.Float64bits(lb) {
			t.Fatalf("%s: ff %d base latency %v, per-trial %v", step, ff, lb, la)
		}
	}
	const tol = 1e-6
	near := func(x, y float64) bool { return x == y || math.Abs(x-y) <= tol }
	for p := range a.D.Pins {
		pin := netlist.PinID(p)
		if !near(a.ArrivalMax(pin), b.ArrivalMax(pin)) || !near(a.ArrivalMin(pin), b.ArrivalMin(pin)) {
			t.Fatalf("%s: pin %d arrivals (%v, %v), per-trial (%v, %v)", step, p,
				b.ArrivalMin(pin), b.ArrivalMax(pin), a.ArrivalMin(pin), a.ArrivalMax(pin))
		}
	}
}

// FuzzClockTrial checks the launch→capture model against the per-trial
// Update on random reconnection trials (see checkClockTrials).
func FuzzClockTrial(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkClockTrials(t, seed)
	})
}

// TestLaunchModelConcurrentStates: states on several goroutines build, use
// and release their models at once, so buffers pass between them through
// the one-model spare; every trial must read the dTNS a serial run reads,
// bit for bit. It is meant to run under -race.
func TestLaunchModelConcurrentStates(t *testing.T) {
	d := clockTrialDesign(t, 0)
	ff := d.FFs[0]
	cur, to := d.LCBofFF(ff), netlist.NoCell
	for _, l := range d.LCBs {
		if l != cur && d.Pins[d.LCBOut(l)].Net != netlist.NoNet {
			to = l
			break
		}
	}
	if cur == netlist.NoCell || to == netlist.NoCell {
		t.Fatal("no reconnection to try")
	}
	trial := func(tm *timing.State) [2]float64 {
		m := tm.LaunchModel()
		defer m.Release()
		td := tm.D
		tm.Checkpoint()
		td.MovePinToNet(td.FFClock(ff), td.Pins[td.LCBOut(to)].Net)
		tm.DirtyCell(ff)
		tm.DirtyCell(cur)
		tm.DirtyCell(to)
		tm.RetimeClock()
		dTNS := m.SlackDelta()
		td.MovePinToNet(td.FFClock(ff), td.Pins[td.LCBOut(cur)].Net)
		tm.Rollback()
		return dTNS
	}
	const workers, rounds = 4, 5
	states := make([]*timing.State, workers)
	for i := range states {
		tm, err := timing.New(d.Clone(), delay.Default())
		if err != nil {
			t.Fatal(err)
		}
		states[i] = tm
	}
	want := trial(states[0])
	got := make([][2]float64, workers*rounds)
	var wg sync.WaitGroup
	for w := range states {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[w*rounds+r] = trial(states[w])
			}
		}(w)
	}
	wg.Wait()
	for i, g := range got {
		for m := range g {
			if math.Float64bits(g[m]) != math.Float64bits(want[m]) {
				t.Fatalf("worker %d round %d mode %d: dTNS %v, serial %v", i/rounds, i%rounds, m, g[m], want[m])
			}
		}
	}
}
