package timing_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// trialer applies random §IV-style trials to a generated design: cell moves,
// LCB–FF reconnections and predictive-latency changes (set and added).
type trialer struct {
	tm      *timing.State
	d       *netlist.Design
	rng     *rand.Rand
	movable []netlist.CellID
}

func newTrialer(tm *timing.State, seed int64) *trialer {
	tr := &trialer{tm: tm, d: tm.D, rng: rand.New(rand.NewSource(seed))}
	for i, c := range tm.D.Cells {
		if !c.Fixed && (c.Type.Kind == netlist.KindComb || c.Type.Kind == netlist.KindFF) {
			tr.movable = append(tr.movable, netlist.CellID(i))
		}
	}
	return tr
}

// mutate changes the design and queues the change on the timer (without
// Update); it returns the trial's kind and a function reverting the design.
func (tr *trialer) mutate(tb testing.TB) (string, func()) {
	tb.Helper()
	d, tm, rng := tr.d, tr.tm, tr.rng
	for try := 0; try < 1000; try++ {
		switch rng.Intn(3) {
		case 0:
			c := tr.movable[rng.Intn(len(tr.movable))]
			origin := d.Cells[c].Pos
			r := d.MaxDisp / 2
			if !d.MoveCell(c, origin.Add(geom.Pt((2*rng.Float64()-1)*r, (2*rng.Float64()-1)*r))) {
				continue
			}
			tm.DirtyCell(c)
			return "move", func() { d.MoveCell(c, origin) }
		case 1:
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
		default:
			for k := 1 + rng.Intn(8); k > 0; k-- {
				ff := d.FFs[rng.Intn(len(d.FFs))]
				if rng.Intn(2) == 0 {
					tm.SetExtraLatency(ff, 80*rng.Float64()-30)
				} else {
					tm.AddExtraLatency(ff, 20*rng.Float64()-10)
				}
			}
			return "latency", func() {}
		}
	}
	tb.Fatal("no applicable trial in 1000 tries")
	return "", nil
}

// requireAnalysisEqual asserts two analysis copies agree bit for bit.
func requireAnalysisEqual(t *testing.T, step string, got, want timing.Analysis) {
	t.Helper()
	floats := []struct {
		name string
		g, w []float64
	}{
		{"atMin", got.AtMin, want.AtMin}, {"atMax", got.AtMax, want.AtMax},
		{"reqMin", got.ReqMin, want.ReqMin}, {"reqMax", got.ReqMax, want.ReqMax},
		{"baseLat", got.BaseLat, want.BaseLat}, {"extraLat", got.ExtraLat, want.ExtraLat},
		{"dIn", got.DIn, want.DIn},
	}
	for _, f := range floats {
		for i := range f.w {
			if math.Float64bits(f.g[i]) != math.Float64bits(f.w[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", step, f.name, i, f.g[i], f.w[i])
			}
		}
	}
	if math.Float64bits(got.ClkIn) != math.Float64bits(want.ClkIn) || got.ClkInOK != want.ClkInOK {
		t.Fatalf("%s: clock-input cache (%v, %v), want (%v, %v)", step, got.ClkIn, got.ClkInOK, want.ClkIn, want.ClkInOK)
	}
}

// TestRollbackRestoresBitForBit: after random trials, some committed and
// some rolled back, under two trial sequences, every Rollback leaves every
// arrival and required time, every latency and every arc delay exactly as
// at its Checkpoint.
func TestRollbackRestoresBitForBit(t *testing.T) {
	for _, seed := range []int64{3, 5} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tm := genTimer(t)
			tr := newTrialer(tm, seed)
			for i := 0; i < 45; i++ {
				before := tm.CopyAnalysis()
				tm.Checkpoint()
				kind, revert := tr.mutate(t)
				// Every fifth trial is abandoned before its Update, leaving
				// its change queued for Rollback to drop; of the others, every
				// third is committed. Trial 0 rolls back the state's first
				// Update, which copies the shared delay snapshot if it
				// changes a delay.
				abandoned := i%5 == 4
				if !abandoned {
					tm.Update()
				}
				if !abandoned && i%3 == 2 {
					tm.Commit()
					continue
				}
				revert()
				tm.Rollback()
				step := fmt.Sprintf("trial %d (%s)", i, kind)
				requireAnalysisEqual(t, step, tm.CopyAnalysis(), before)
				if n := tm.Update(); n != 0 {
					t.Fatalf("%s: Update after Rollback visited %d pins, want 0", step, n)
				}
			}
		})
	}
}

// TestSlackDeltaMatchesWNSTNS: over random trials, some committed and some
// rolled back, SlackDelta's dTNS in each mode is WNSTNS's TNS after minus
// before, its worst is the minimum slack over exactly the endpoints whose
// slack bits changed, and CheckpointWNS is the WNS WNSTNS gave just before
// Checkpoint, bit for bit, whether read before or after SlackDelta. Every
// third trial changes nothing, so its log is empty and SlackDelta returns
// before marking any endpoint, while the previous trial's marks remain.
func TestSlackDeltaMatchesWNSTNS(t *testing.T) {
	tm := genTimer(t)
	tr := newTrialer(tm, 11)
	modes := []timing.Mode{timing.Late, timing.Early}
	n := len(tm.Endpoints())
	var slackBefore [2][]float64
	var wnsBefore, tnsBefore [2]float64
	var untouched, raised, emptyAfterChange int
	prevChanged := false
	for i := 0; i < 60; i++ {
		for _, m := range modes {
			wnsBefore[m], tnsBefore[m] = tm.WNSTNS(m)
			slackBefore[m] = slackBefore[m][:0]
			for e := 0; e < n; e++ {
				slackBefore[m] = append(slackBefore[m], tm.Slack(timing.EndpointID(e), m))
			}
		}
		tm.Checkpoint()
		kind, revert := "empty", func() {}
		if i%3 != 1 {
			kind, revert = tr.mutate(t)
		}
		tm.Update()
		step := fmt.Sprintf("trial %d (%s)", i, kind)
		checkWNS := func(when string) {
			for _, m := range modes {
				if got := tm.CheckpointWNS(m); math.Float64bits(got) != math.Float64bits(wnsBefore[m]) {
					t.Errorf("%s %v: CheckpointWNS %s SlackDelta = %v, WNSTNS before Checkpoint = %v", step, m, when, got, wnsBefore[m])
				}
			}
		}
		if i%2 == 1 {
			checkWNS("before")
		}
		dTNS, worst := tm.SlackDelta()
		if i%2 == 0 {
			checkWNS("after")
		}
		changed := false
		for _, m := range modes {
			wnsAfter, tnsAfter := tm.WNSTNS(m)
			if want := tnsAfter - tnsBefore[m]; math.Abs(dTNS[m]-want) > 1e-6+1e-9*math.Abs(tnsAfter) {
				t.Errorf("%s %v: dTNS = %v, want %v", step, m, dTNS[m], want)
			}
			wantWorst := math.Inf(1)
			for e := 0; e < n; e++ {
				s := tm.Slack(timing.EndpointID(e), m)
				if math.Float64bits(s) != math.Float64bits(slackBefore[m][e]) {
					changed = true
					wantWorst = math.Min(wantWorst, s)
				}
			}
			if math.Float64bits(worst[m]) != math.Float64bits(wantWorst) {
				t.Errorf("%s %v: worst = %v, want %v", step, m, worst[m], wantWorst)
			}
			if wnsAfter > wnsBefore[m] {
				raised++
			}
		}
		if !changed {
			untouched++
			if kind == "empty" && prevChanged {
				emptyAfterChange++
			}
		}
		prevChanged = changed
		if tr.rng.Intn(2) == 0 {
			tm.Commit()
		} else {
			revert()
			tm.Rollback()
		}
		if dTNS, worst := tm.SlackDelta(); dTNS != [2]float64{} || !math.IsInf(worst[timing.Late], 1) || !math.IsInf(worst[timing.Early], 1) {
			t.Fatalf("%s: SlackDelta with no checkpoint open = (%v, %v)", step, dTNS, worst)
		}
		for _, m := range modes {
			want, _ := tm.WNSTNS(m)
			if got := tm.CheckpointWNS(m); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v: CheckpointWNS with no checkpoint open = %v, WNSTNS = %v", step, m, got, want)
			}
		}
	}
	if untouched == 0 || raised == 0 || emptyAfterChange == 0 {
		t.Fatalf("trials cover too little: %d changed no endpoint slack, %d raised a WNS, %d empty after a changing trial",
			untouched, raised, emptyAfterChange)
	}
}

// TestTrialsMatchFreshTimer: after a run of committed and rolled-back
// trials (reconnections re-time only the dirty LCBs), every base latency
// and endpoint slack matches a timer built from scratch on the final design.
func TestTrialsMatchFreshTimer(t *testing.T) {
	tm := genTimer(t)
	tr := newTrialer(tm, 5)
	for i := 0; i < 60; i++ {
		tm.Checkpoint()
		_, revert := tr.mutate(t)
		tm.Update()
		if tr.rng.Intn(2) == 0 {
			tm.Commit()
		} else {
			revert()
			tm.Rollback()
		}
	}
	d := tm.D
	fresh, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, ff := range d.FFs {
		fresh.SetExtraLatency(ff, tm.ExtraLatency(ff))
	}
	fresh.FullUpdate()
	const tol = 1e-6 // TestIncrementalMatchesFull's
	for _, ff := range d.FFs {
		if got, want := tm.BaseLatency(ff), fresh.BaseLatency(ff); math.Abs(got-want) > tol {
			t.Errorf("ff %d: base latency %v, fresh %v", ff, got, want)
		}
	}
	for e := range tm.Endpoints() {
		for _, m := range []timing.Mode{timing.Late, timing.Early} {
			got, want := tm.Slack(timing.EndpointID(e), m), fresh.Slack(timing.EndpointID(e), m)
			if math.Abs(got-want) > tol {
				t.Errorf("endpoint %d %v: slack %v, fresh %v", e, m, got, want)
			}
		}
	}
}

// TestCheckpointClosers: FullUpdate, Reset, SetPeriod and SetDerates close
// an open checkpoint, keeping its changes: a later Rollback is a no-op and
// a new Checkpoint opens normally. Opening a second checkpoint panics.
func TestCheckpointClosers(t *testing.T) {
	closers := map[string]func(tm *timing.State){
		"FullUpdate": func(tm *timing.State) { tm.FullUpdate() },
		"Reset":      func(tm *timing.State) { tm.Reset() },
		"SetPeriod":  func(tm *timing.State) { tm.SetPeriod(tm.Period() * 1.05) },
		"SetDerates": func(tm *timing.State) { tm.SetDerates(0.9, 1.1) },
	}
	tm := genTimer(t)
	for name, closeCheckpoint := range closers {
		t.Run(name, func(t *testing.T) {
			tm.Reset()
			tm.Checkpoint()
			for _, ff := range tm.D.FFs[:8] {
				tm.SetExtraLatency(ff, 25)
			}
			tm.Update()
			closeCheckpoint(tm)
			after := tm.CopyAnalysis()
			tm.Rollback()
			requireAnalysisEqual(t, "Rollback after "+name, tm.CopyAnalysis(), after)
			tm.Checkpoint()
			tm.Commit()
		})
	}

	defer func() {
		if recover() == nil {
			t.Error("nested Checkpoint did not panic")
		}
	}()
	tm.Checkpoint()
	tm.Checkpoint()
}
