package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"iterskew/internal/delay"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// panicScheduler blows up mid-session after mutating the state, the worst
// case for pool hygiene.
type panicScheduler struct{}

func (panicScheduler) Schedule(tm sched.TimingView, opts sched.Options) (*sched.Result, error) {
	tm.AddExtraLatency(tm.Design().FFs[0], 123) // poison the state first
	panic("injected scheduler panic")
}

// TestRunAllPanicIsolated: an injected panic in one RunAll job surfaces as
// that job's error, every sibling completes with a correct result, and the
// poisoned state is discarded rather than recycled. Run under -race this is
// also the concurrency proof for the recovery path.
func TestRunAllPanicIsolated(t *testing.T) {
	d := genDesign(t, 0.01)
	jobs := mixedJobs(d.Period)
	pi := 3
	jobs[pi] = Job{Scheduler: panicScheduler{}, Options: sched.Options{Mode: timing.Late}}

	want := make([]*sched.Result, len(jobs))
	for i, job := range jobs {
		if i == pi {
			continue
		}
		want[i] = serialReference(t, d, job)
	}

	e, err := New(d, delay.Default(), Config{MaxInFlight: len(jobs)})
	if err != nil {
		t.Fatal(err)
	}
	got := e.RunAll(jobs)

	var pe *PanicError
	if got[pi].Err == nil || !errors.As(got[pi].Err, &pe) {
		t.Fatalf("panicking job error = %v, want a *PanicError", got[pi].Err)
	}
	if pe.Value != "injected scheduler panic" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = {%v, %d-byte stack}, want the injected value and a stack", pe.Value, len(pe.Stack))
	}
	for i := range jobs {
		if i == pi {
			continue
		}
		if got[i].Err != nil {
			t.Fatalf("sibling job %d failed: %v", i, got[i].Err)
		}
		if !sameTargets(got[i].Result.Target, want[i].Target) {
			t.Errorf("sibling job %d: schedule diverges from serial reference", i)
		}
	}
	if e.StatesDiscarded() != 1 {
		t.Errorf("StatesDiscarded = %d, want 1", e.StatesDiscarded())
	}
	if e.StatesCreated() > len(jobs) {
		t.Errorf("StatesCreated = %d > %d jobs", e.StatesCreated(), len(jobs))
	}

	// The discarded state must not haunt the pool: a follow-up job matches
	// its serial reference exactly.
	after := Job{Options: sched.Options{Mode: timing.Late}}
	res, err := e.Run(after)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTargets(res.Target, serialReference(t, d, after).Target) {
		t.Error("post-panic job diverges from serial reference (pool polluted)")
	}
}

// TestSessionPanicBecomesError: the plain Session API recovers panics too.
func TestSessionPanicBecomesError(t *testing.T) {
	d := genDesign(t, 0.004)
	e, err := New(d, delay.Default(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	serr := e.Session(func(tm *timing.State) error { panic(42) })
	var pe *PanicError
	if !errors.As(serr, &pe) || pe.Value != 42 {
		t.Fatalf("Session error = %v, want *PanicError{42}", serr)
	}
	if e.StatesDiscarded() != 1 {
		t.Errorf("StatesDiscarded = %d, want 1", e.StatesDiscarded())
	}
}

// TestSessionContextCancelledSlotWait: a context cancelled while every slot
// is taken aborts the wait without acquiring a state.
func TestSessionContextCancelledSlotWait(t *testing.T) {
	d := genDesign(t, 0.004)
	e, err := New(d, delay.Default(), Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}

	hold := make(chan struct{})
	running := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- e.Session(func(tm *timing.State) error {
			close(running)
			<-hold
			return nil
		})
	}()
	<-running

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := e.StatesCreated()
	serr := e.SessionContext(ctx, func(tm *timing.State) error {
		t.Error("callback ran despite cancelled context")
		return nil
	})
	if !errors.Is(serr, context.Canceled) {
		t.Errorf("SessionContext error = %v, want context.Canceled", serr)
	}
	if e.StatesCreated() != before {
		t.Errorf("cancelled slot wait still created a state (%d -> %d)", before, e.StatesCreated())
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestJobTimeoutDeadline: Job.Timeout bounds the run; the result is a
// consistent partial answer with StopReason=deadline.
func TestJobTimeoutDeadline(t *testing.T) {
	d := genDesign(t, 0.01)
	e, err := New(d, delay.Default(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Job{
		Options: sched.Options{Mode: timing.Late, StallRounds: -1},
		Timeout: time.Nanosecond, // expires before the first round boundary
	})
	if err != nil {
		t.Fatalf("timed-out job returned an error: %v (cancellation must not be an error)", err)
	}
	if res.StopReason != sched.StopDeadline {
		t.Fatalf("StopReason = %v, want %v", res.StopReason, sched.StopDeadline)
	}
}

// TestSessionPlumbingDoesNotLeak: the run plumbing a session installs on
// its state (stop hook, recorder, request ID) must not survive into the
// next session on the recycled state.
func TestSessionPlumbingDoesNotLeak(t *testing.T) {
	d := genDesign(t, 0.004)
	e, err := New(d, delay.Default(), Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	var first *timing.State
	if err := e.Session(func(tm *timing.State) error {
		first = tm
		tm.SetCheck(func() bool { return false })
		tm.SetRecorder(obs.NewRecorder())
		tm.SetReq("req-1")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Session(func(tm *timing.State) error {
		if tm != first {
			t.Error("the second session did not get the recycled state")
			return nil
		}
		if tm.Check() != nil {
			t.Error("recycled state still carries a stop hook")
		}
		if tm.Recorder() != nil {
			t.Error("recycled state still carries a recorder")
		}
		if tm.Req() != "" {
			t.Errorf("recycled state still carries request ID %q", tm.Req())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
