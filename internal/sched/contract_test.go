package sched_test

import (
	"strings"
	"testing"

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
