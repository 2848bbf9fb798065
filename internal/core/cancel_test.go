package core

import (
	"context"
	"testing"
	"time"

	"iterskew/internal/bench"
	"iterskew/internal/delay"
	"iterskew/internal/netlist"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// genTimer builds a scaled superblue18 timer — the only fixture in this
// package whose late schedule needs many rounds (the buildChain pipelines
// converge in two), so cancellation can land mid-run.
func genTimer(t testing.TB) (*netlist.Design, *timing.State) {
	t.Helper()
	p, err := bench.Superblue("superblue18", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return d, tm
}

// TestCancelMidRunConsistent: cancelling via Progress mid-run stops at the
// next round boundary with StopReason=cancelled and a consistent partial
// result — the reported Target matches the latencies actually applied on
// the timer, and re-running Update is a no-op.
func TestCancelMidRunConsistent(t *testing.T) {
	d, ref := genTimer(t)
	full := mustSchedule(t, ref, Options{Mode: timing.Late, StallRounds: -1, MaxRounds: 60})
	if full.Rounds < 4 {
		t.Fatalf("fixture converges in %d rounds; too fast to cancel mid-run", full.Rounds)
	}

	_, tm := genTimer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res := mustSchedule(t, tm, Options{
		Mode: timing.Late, StallRounds: -1, MaxRounds: 60, Context: ctx,
		Progress: func(st IterStats) {
			if st.Round >= 1 {
				cancel()
			}
		},
	})

	if res.StopReason != sched.StopCancelled {
		t.Fatalf("StopReason = %v, want %v", res.StopReason, sched.StopCancelled)
	}
	if res.Rounds >= full.Rounds {
		t.Errorf("cancelled run took %d rounds, full run %d — cancel had no effect", res.Rounds, full.Rounds)
	}
	for _, ff := range d.FFs {
		if got, want := tm.ExtraLatency(ff), res.Target[ff]; got != want {
			t.Errorf("ff %d: applied latency %v != Target %v", ff, got, want)
		}
	}
	if n := tm.Update(); n != 0 {
		t.Errorf("Update after cancelled run repropagated %d pins, want 0 (propagation not drained)", n)
	}
}

// TestDeadlineAlreadyPassed: a pre-expired Options.Deadline stops the run
// before the first round, with nothing applied.
func TestDeadlineAlreadyPassed(t *testing.T) {
	c := buildChain(t, 300, []int{20, 2})
	tm := newTimer(t, c.d)
	res := mustSchedule(t, tm, Options{Mode: timing.Late, Deadline: time.Now().Add(-time.Second)})
	if res.StopReason != sched.StopDeadline {
		t.Fatalf("StopReason = %v, want %v", res.StopReason, sched.StopDeadline)
	}
	if res.Rounds != 0 || len(res.Target) != 0 {
		t.Errorf("pre-expired deadline still ran: rounds=%d targets=%d", res.Rounds, len(res.Target))
	}
	if n := tm.Update(); n != 0 {
		t.Errorf("Update repropagated %d pins on an untouched timer", n)
	}
}

// TestStopReasonConvergedOnFinalRound: a run that converges exactly when
// Rounds == MaxRounds must report converged, not round-cap (the old
// termination log keyed on the round count alone and got this wrong).
func TestStopReasonConvergedOnFinalRound(t *testing.T) {
	c := buildChain(t, 300, []int{20, 2})
	tm := newTimer(t, c.d)
	ref := mustSchedule(t, tm, Options{Mode: timing.Late, StallRounds: -1})
	if ref.StopReason != sched.StopConverged {
		t.Fatalf("reference run: StopReason = %v, want converged", ref.StopReason)
	}

	c2 := buildChain(t, 300, []int{20, 2})
	tm2 := newTimer(t, c2.d)
	onCap := mustSchedule(t, tm2, Options{Mode: timing.Late, StallRounds: -1, MaxRounds: ref.Rounds})
	if onCap.Rounds != ref.Rounds {
		t.Fatalf("capped run took %d rounds, reference %d", onCap.Rounds, ref.Rounds)
	}
	if onCap.StopReason != sched.StopConverged {
		t.Errorf("converged exactly on the final round reported %v, want converged", onCap.StopReason)
	}
}

// TestStopReasonRoundCapAndStalled: a true cap reports round-cap; a
// plateauing run under a tight guard reports stalled.
func TestStopReasonRoundCapAndStalled(t *testing.T) {
	_, tm := genTimer(t)
	capped := mustSchedule(t, tm, Options{Mode: timing.Late, StallRounds: -1, MaxRounds: 2})
	if capped.Rounds != 2 || capped.StopReason != sched.StopRoundCap {
		t.Errorf("true cap: rounds=%d reason=%v, want 2/round-cap", capped.Rounds, capped.StopReason)
	}

	c2 := buildChain(t, 300, []int{20, 2, 15, 3})
	tm2 := newTimer(t, c2.d)
	stalled := mustSchedule(t, tm2, Options{Mode: timing.Late, StallRounds: 1, MaxRounds: 40})
	if stalled.StopReason != sched.StopStalled {
		t.Errorf("plateau under StallRounds=1 reported %v, want stalled", stalled.StopReason)
	}
}

// TestCycleRoundDoesNotTripGuard: on a pure ring the Eq-9 equalization
// preserves TNS, so under the tightest guard the cycle round itself must
// not stop the run — the ring still converges with its cycle frozen.
func TestCycleRoundDoesNotTripGuard(t *testing.T) {
	d, _, _ := buildRing(t, 352, 30, 20)
	tm := newTimer(t, d)
	res := mustSchedule(t, tm, Options{Mode: timing.Late, StallRounds: 1})
	if res.Cycles == 0 {
		t.Fatal("ring cycle not handled")
	}
	if res.StopReason == sched.StopStalled && res.Rounds <= 1 {
		t.Errorf("cycle-freezing round tripped the stall guard: rounds=%d reason=%v",
			res.Rounds, res.StopReason)
	}
}
