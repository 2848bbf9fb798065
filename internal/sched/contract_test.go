package sched_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iterskew/internal/bench"
	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/fpm"
	"iterskew/internal/iccss"
	"iterskew/internal/netlist"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// contractDesign is the shared fixture: small enough that the full matrix of
// schedulers stays fast, large enough that every scheduler runs real rounds.
func contractDesign(t testing.TB, scale float64, seed int64) *netlist.Design {
	t.Helper()
	p, err := bench.Superblue("superblue18", scale)
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

func contractTimer(t testing.TB, d *netlist.Design) *timing.State {
	t.Helper()
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// schedulers is the table every contract case iterates: all three
// algorithms, with the per-implementation quirks the shared Options contract
// permits spelled out.
var schedulers = []struct {
	name    string
	s       sched.Scheduler
	mode    timing.Mode
	oneShot bool // fpm: Progress fires exactly once, as round 0, Rounds stays 0
	stalls  bool // honors StallRounds with StopStalled on a plateau
}{
	{name: "core", s: core.Scheduler, mode: timing.Late, stalls: true},
	{name: "iccss", s: iccss.Scheduler, mode: timing.Late, stalls: true},
	{name: "fpm", s: fpm.Scheduler, mode: timing.Early, oneShot: true},
}

// TestProgressAndLogContract verifies the per-round Options contract every
// scheduler must honor: Progress fires once per counted round with rounds
// numbered 0,1,2,… in order, and Log receives a non-empty trace that names
// the termination decision.
func TestProgressAndLogContract(t *testing.T) {
	d := contractDesign(t, 0.005, 0)
	reasonWord := map[sched.StopReason]string{
		sched.StopConverged: "converged",
		sched.StopStalled:   "stall",
		sched.StopRoundCap:  "round cap",
	}
	for _, tc := range schedulers {
		t.Run(tc.name, func(t *testing.T) {
			var rounds []int
			var log strings.Builder
			tm := contractTimer(t, d.Clone())
			res, err := tc.s.Schedule(tm, sched.Options{
				Mode: tc.mode,
				Progress: func(st sched.IterStats) {
					rounds = append(rounds, st.Round)
				},
				Log: &log,
			})
			if err != nil {
				t.Fatal(err)
			}

			if tc.oneShot {
				if len(rounds) != 1 || rounds[0] != 0 {
					t.Fatalf("one-shot Progress calls = %v, want exactly [0]", rounds)
				}
				if res.Rounds != 0 {
					t.Fatalf("one-shot Rounds = %d, want 0", res.Rounds)
				}
			} else {
				if len(rounds) != res.Rounds {
					t.Fatalf("Progress fired %d times for %d rounds", len(rounds), res.Rounds)
				}
				if res.Rounds == 0 {
					t.Fatal("fixture produced a zero-round run — contract not exercised")
				}
				for i, r := range rounds {
					if r != i {
						t.Fatalf("round numbering broken at position %d: %v", i, rounds)
					}
				}
			}

			if log.Len() == 0 {
				t.Fatal("Log received nothing")
			}
			if w, ok := reasonWord[res.StopReason]; ok && !strings.Contains(log.String(), w) {
				t.Fatalf("log does not name the %s decision:\n%s", res.StopReason, log.String())
			}
		})
	}
}

// TestStallRoundsContract verifies StallRounds semantics on a plateau
// fixture: a hair-trigger guard must end the run as StopStalled (fpm is
// exempt — one-shot runs have no rounds to stall across).
func TestStallRoundsContract(t *testing.T) {
	// The larger scale at seed offset 404 has a crawl region every iterative
	// scheduler plateaus in under a hair-trigger guard.
	d := contractDesign(t, 0.01, 404)
	for _, tc := range schedulers {
		if !tc.stalls {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			tm := contractTimer(t, d.Clone())
			res, err := tc.s.Schedule(tm, sched.Options{Mode: tc.mode, StallRounds: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.StopReason != sched.StopStalled {
				t.Fatalf("StallRounds=1 ended as %s after %d rounds, want stalled",
					res.StopReason, res.Rounds)
			}
		})
	}
}

// TestNilHooksAllocationFree pins the hot-path cost of the contract: with a
// no-op by-value Progress callback the per-schedule allocation count must
// not grow measurably over a run with all observability hooks nil.
func TestNilHooksAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	d := contractDesign(t, 0.005, 0)
	for _, tc := range schedulers {
		t.Run(tc.name, func(t *testing.T) {
			run := func(progress func(sched.IterStats)) float64 {
				return testing.AllocsPerRun(3, func() {
					tm := contractTimer(t, d.Clone())
					if _, err := tc.s.Schedule(tm, sched.Options{Mode: tc.mode, Progress: progress}); err != nil {
						t.Fatal(err)
					}
				})
			}
			bare := run(nil)
			hooked := run(func(sched.IterStats) {})
			// The closure itself and the shared WNS/TNS sweep may cost a
			// handful of one-time allocations; per-round costs would show up
			// as dozens.
			if hooked > bare+8 {
				t.Fatalf("Progress hook added %.0f allocations (bare %.0f, hooked %.0f)",
					hooked-bare, bare, hooked)
			}
		})
	}
}

// countdownCtx is a context whose Err reports Canceled from its n-th call
// on. The stop hook probes Err between Update's level buckets and per
// extraction root, so the cancellation lands inside timer work, not only at
// a round boundary.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancellationContract verifies the Context/Deadline part of the
// contract. However the run is stopped — a context cancelled or a deadline
// passed before it starts, a cancel from Progress at round 1, or one that
// lands inside an Update or extraction batch — it returns a consistent
// partial result: every flip-flop's applied latency equals its Target and a
// following Update visits no pin. A run stopped before it starts applies
// nothing. The hook the caller installed before Schedule is the one
// installed after it.
func TestCancellationContract(t *testing.T) {
	d := contractDesign(t, 0.005, 0)
	type cancelCase struct {
		name     string
		iterOnly bool // needs a second round
		want     sched.StopReason
		set      func(*sched.Options)
	}
	cases := []cancelCase{
		{name: "precancelled", want: sched.StopCancelled, set: func(o *sched.Options) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			o.Context = ctx
		}},
		{name: "expired", want: sched.StopDeadline, set: func(o *sched.Options) {
			o.Deadline = time.Now().Add(-time.Second)
		}},
		{name: "round1", iterOnly: true, want: sched.StopCancelled, set: func(o *sched.Options) {
			ctx, cancel := context.WithCancel(context.Background())
			o.Context = ctx
			o.Progress = func(st sched.IterStats) {
				if st.Round >= 1 {
					cancel()
				}
			}
		}},
	}
	for _, n := range []int64{10, 30, 60, 150, 250} {
		cases = append(cases, cancelCase{name: fmt.Sprintf("probe%d", n), want: sched.StopCancelled, set: func(o *sched.Options) {
			ctx := &countdownCtx{Context: context.Background()}
			ctx.n.Store(n)
			o.Context = ctx
		}})
	}
	for _, tc := range schedulers {
		for _, c := range cases {
			if c.iterOnly && tc.oneShot {
				continue
			}
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				tm := contractTimer(t, d.Clone())
				var probes atomic.Int64
				tm.SetCheck(func() bool { probes.Add(1); return false })
				opts := sched.Options{Mode: tc.mode, StallRounds: -1}
				c.set(&opts)
				res, err := tc.s.Schedule(tm, opts)
				if err != nil {
					t.Fatal(err)
				}

				if res.StopReason != c.want {
					t.Fatalf("StopReason = %v after %d rounds, want %v", res.StopReason, res.Rounds, c.want)
				}
				if (c.name == "precancelled" || c.name == "expired") && (res.Rounds != 0 || len(res.Target) != 0) {
					t.Errorf("run stopped before it began applied latencies: rounds=%d targets=%d", res.Rounds, len(res.Target))
				}
				if c.name == "round1" && res.Rounds != 2 {
					t.Errorf("cancelled at round 1 but ran %d rounds", res.Rounds)
				}
				before := probes.Load()
				if hook := tm.Check(); hook == nil || hook() || probes.Load() != before+1 {
					t.Error("the caller's hook is not the installed one after Schedule")
				}
				for _, ff := range d.FFs {
					if got, want := tm.ExtraLatency(ff), res.Target[ff]; got != want {
						t.Errorf("ff %d: applied latency %v != Target %v", ff, got, want)
					}
				}
				if n := tm.Update(); n != 0 {
					t.Errorf("Update after the cancelled run visited %d pins, want 0", n)
				}
			})
		}
	}
}
