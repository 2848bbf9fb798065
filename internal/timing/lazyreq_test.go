package timing_test

import (
	"fmt"
	"math"
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/opt"
	"iterskew/internal/timing"
)

// Required times settle on demand: Update propagates arrivals only and
// queues its backward seeds, and the first LaunchLateSlack/LaunchEarlySlack
// read drains them.

// requireLaunchSlacksMatchFresh asserts every flip-flop's launch slacks
// match a timer built from scratch on tm's design, period and predictive
// latencies, within TestIncrementalMatchesFull's tolerance.
func requireLaunchSlacksMatchFresh(t *testing.T, step string, tm *timing.Timer) {
	t.Helper()
	d := tm.D
	fresh, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	fresh.SetPeriod(tm.Period())
	for _, ff := range d.FFs {
		fresh.SetExtraLatency(ff, tm.ExtraLatency(ff))
	}
	fresh.FullUpdate()
	const tol = 1e-6
	for _, ff := range d.FFs {
		if got, want := tm.LaunchLateSlack(ff), fresh.LaunchLateSlack(ff); math.Abs(got-want) > tol {
			t.Fatalf("%s: ff %d launch late slack %v, fresh %v", step, ff, got, want)
		}
		if got, want := tm.LaunchEarlySlack(ff), fresh.LaunchEarlySlack(ff); math.Abs(got-want) > tol {
			t.Fatalf("%s: ff %d launch early slack %v, fresh %v", step, ff, got, want)
		}
	}
}

// TestLazyRequiredMatchesFull: random latency changes, cell moves, LCB–FF
// reconnections and period what-ifs, applied as plain Updates and as
// committed or rolled-back trials, with required-time reads at random
// points in between, leave launch slacks that match a from-scratch timer,
// on the serial and the worker-pool paths.
func TestLazyRequiredMatchesFull(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tm := genTimer(t)
			tm.SetWorkers(workers)
			tr := newTrialer(tm, 17)
			period := tm.Period()
			for i := 0; i < 60; i++ {
				switch tr.rng.Intn(8) {
				case 0:
					tm.SetPeriod(period * (0.9 + 0.2*tr.rng.Float64()))
				case 1, 2:
					tr.mutate(t)
					tm.Update()
				default:
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
				if tr.rng.Intn(4) == 0 {
					tm.LaunchLateSlack(tm.D.FFs[tr.rng.Intn(len(tm.D.FFs))])
				}
				if i%20 == 19 {
					requireLaunchSlacksMatchFresh(t, fmt.Sprintf("step %d", i), tm)
				}
			}
		})
	}
}

// TestRequiredReadIgnoresCheck: a stop hook that always fires aborts
// Update, but never the required-time drain of a read, which returns the
// same settled values as a timer without the hook.
func TestRequiredReadIgnoresCheck(t *testing.T) {
	ref, tm := genTimer(t), genTimer(t)
	for _, x := range []*timing.Timer{ref, tm} {
		for i := 0; i < len(x.D.FFs); i += 3 {
			x.AddExtraLatency(x.D.FFs[i], 40)
		}
		x.Update()
	}
	tm.SetCheck(func() bool { return true })
	before := tm.Stats.BackwardPinVisits
	for _, ff := range tm.D.FFs {
		if got, want := tm.LaunchLateSlack(ff), ref.LaunchLateSlack(ff); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ff %d: launch late slack %v under an always-stop hook, %v without", ff, got, want)
		}
		if got, want := tm.LaunchEarlySlack(ff), ref.LaunchEarlySlack(ff); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ff %d: launch early slack %v under an always-stop hook, %v without", ff, got, want)
		}
	}
	if tm.Stats.BackwardPinVisits == before {
		t.Fatal("the read drained no backward pins")
	}
	tm.SetCheck(nil)
	requireLaunchSlacksMatchFresh(t, "after the hooked read", tm)
}

// TestRequiredReadInCheckpointPanics: the trial log records no required
// time, so a required-time read inside an open checkpoint panics.
func TestRequiredReadInCheckpointPanics(t *testing.T) {
	tm := genTimer(t)
	ff := tm.D.FFs[0]
	reads := map[string]func(){
		"LaunchLateSlack":  func() { tm.LaunchLateSlack(ff) },
		"LaunchEarlySlack": func() { tm.LaunchEarlySlack(ff) },
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			tm.Checkpoint()
			defer tm.Rollback()
			defer func() {
				if recover() == nil {
					t.Errorf("%s inside a checkpoint did not panic", name)
				}
			}()
			read()
		})
	}
}

// TestRollbackKeepsCommittedSeeds: the backward seeds a committed trial A
// queued survive a later rolled-back trial B, so the settled required
// times equal those after A alone, bit for bit.
func TestRollbackKeepsCommittedSeeds(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		alone, both := genTimer(t), genTimer(t)
		trAlone, trBoth := newTrialer(alone, seed), newTrialer(both, seed)
		for _, x := range []struct {
			tm *timing.Timer
			tr *trialer
		}{{alone, trAlone}, {both, trBoth}} {
			x.tm.Checkpoint()
			x.tr.mutate(t)
			x.tm.Update()
			x.tm.Commit()
		}
		both.Checkpoint()
		kind, revert := trBoth.mutate(t)
		both.Update()
		revert()
		both.Rollback()

		alone.LaunchLateSlack(alone.D.FFs[0])
		both.LaunchLateSlack(both.D.FFs[0])
		requireAnalysisEqual(t, fmt.Sprintf("seed %d, B %s", seed, kind), both.CopyAnalysis(), alone.CopyAnalysis())
	}
}

// TestNoBackwardPassWithoutReads: a late-mode core schedule and the §IV
// reconnection pass read no required time, so neither runs a backward
// pass.
func TestNoBackwardPassWithoutReads(t *testing.T) {
	tm := genTimer(t)
	before := tm.Stats.BackwardPinVisits
	res, err := core.Schedule(tm, core.Options{Mode: timing.Late})
	if err != nil {
		t.Fatal(err)
	}
	if got := tm.Stats.BackwardPinVisits; got != before {
		t.Fatalf("late core.Schedule visited %d backward pins", got-before)
	}
	r := opt.Reconnect(tm, res.Target, opt.ReconnectOptions{})
	if r.Attempted == 0 {
		t.Fatal("reconnection attempted nothing; fixture too small")
	}
	if got := tm.Stats.BackwardPinVisits; got != before {
		t.Fatalf("opt.Reconnect visited %d backward pins", got-before)
	}
	requireLaunchSlacksMatchFresh(t, "after reconnection", tm)
}

// TestCornerSetSettlesEveryCorner: the first envelope launch-slack read
// after an Update drains every corner's queued required times (the corners
// concurrently), and the envelope then matches the minimum over per-corner
// timers built from scratch.
func TestCornerSetSettlesEveryCorner(t *testing.T) {
	d := genTimer(t).D
	g, err := timing.Compile(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	corners := []timing.Corner{
		{Name: "typ"},
		{Name: "fast", DerateEarly: 0.86},
		{Name: "relaxed", Period: d.Period * 1.08, DerateEarly: 0.9},
	}
	cs, err := timing.NewCornerSet(g, corners)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := round; i < len(d.FFs); i += 3 {
			cs.AddExtraLatency(d.FFs[i], 15)
		}
		cs.Update()
		before := make([]int64, cs.NumCorners())
		for i := range before {
			before[i] = cs.State(i).Stats.BackwardPinVisits
		}
		cs.LaunchLateSlack(d.FFs[0])
		for i := range before {
			if cs.State(i).Stats.BackwardPinVisits == before[i] {
				t.Fatalf("round %d: the first read left corner %s undrained", round, cs.CornerName(i))
			}
		}
	}
	fresh := make([]*timing.Timer, len(corners))
	for i := range fresh {
		s := g.NewState()
		s.SetPeriod(cs.State(i).Period())
		s.SetDerates(cs.State(i).Derates())
		for _, ff := range d.FFs {
			s.SetExtraLatency(ff, cs.ExtraLatency(ff))
		}
		s.FullUpdate()
		fresh[i] = s
	}
	for _, ff := range d.FFs {
		want := math.Inf(1)
		for _, s := range fresh {
			want = math.Min(want, s.LaunchLateSlack(ff))
		}
		if got := cs.LaunchLateSlack(ff); math.Abs(got-want) > 1e-6 {
			t.Fatalf("ff %d: envelope launch late slack %v, fresh corners %v", ff, got, want)
		}
	}
}
