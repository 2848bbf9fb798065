package engine

import (
	"math"
	"sync/atomic"
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

func genDesign(tb testing.TB, scale float64) *netlist.Design {
	tb.Helper()
	p, err := bench.Superblue("superblue18", scale)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := bench.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// pf builds a pointer derate override for Job literals.
func pf(v float64) *float64 { return &v }

func sameTargets(a, b map[netlist.CellID]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// serialReference runs the job the pre-engine way: a dedicated full
// timing.New build over the design, then the scheduler, all on one
// goroutine.
func serialReference(tb testing.TB, d *netlist.Design, job Job) *sched.Result {
	tb.Helper()
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		tb.Fatal(err)
	}
	if job.Period != 0 {
		tm.SetPeriod(job.Period)
	}
	if job.DerateEarly != nil || job.DerateLate != nil {
		de, dl := tm.Derates()
		if job.DerateEarly != nil {
			de = *job.DerateEarly
		}
		if job.DerateLate != nil {
			dl = *job.DerateLate
		}
		tm.SetDerates(de, dl)
	}
	s := job.Scheduler
	if s == nil {
		s = core.Scheduler
	}
	res, err := s.Schedule(tm, job.Options)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// mixedJobs is the ≥8-session workload used by the concurrency tests: all
// three schedulers, both modes, plus what-if period and derate sessions.
func mixedJobs(period float64) []Job {
	return []Job{
		{Options: sched.Options{Mode: timing.Early}},
		{Options: sched.Options{Mode: timing.Late}},
		{Options: sched.Options{Mode: timing.Early, Margin: 20}},
		{Scheduler: iccss.Scheduler, Options: sched.Options{Mode: timing.Early}},
		{Scheduler: iccss.Scheduler, Options: sched.Options{Mode: timing.Late}},
		{Scheduler: fpm.Scheduler},
		{Options: sched.Options{Mode: timing.Late}, Period: period * 1.25},
		{Options: sched.Options{Mode: timing.Early}, DerateEarly: pf(1.05), DerateLate: pf(0.92)},
	}
}

// TestEngineConcurrentSessionsMatchSerial: ≥8 simultaneous sessions over one
// shared graph produce results byte-identical to dedicated serial timers.
// Run under -race this is also the shared-graph safety proof.
func TestEngineConcurrentSessionsMatchSerial(t *testing.T) {
	d := genDesign(t, 0.01)
	jobs := mixedJobs(d.Period)

	want := make([]*sched.Result, len(jobs))
	for i, job := range jobs {
		want[i] = serialReference(t, d, job)
	}

	e, err := New(d, delay.Default(), Config{MaxInFlight: len(jobs)})
	if err != nil {
		t.Fatal(err)
	}
	got := e.RunAll(jobs)

	for i := range jobs {
		if got[i].Err != nil {
			t.Fatalf("job %d: %v", i, got[i].Err)
		}
		g, w := got[i].Result, want[i]
		if !sameTargets(g.Target, w.Target) {
			t.Errorf("job %d: target schedules diverge (%d vs %d latencies)",
				i, len(g.Target), len(w.Target))
		}
		if g.Rounds != w.Rounds {
			t.Errorf("job %d: rounds %d vs %d", i, g.Rounds, w.Rounds)
		}
		if g.EdgesExtracted != w.EdgesExtracted {
			t.Errorf("job %d: edges %d vs %d", i, g.EdgesExtracted, w.EdgesExtracted)
		}
	}
}

// TestEngineSessionPoolReuse: sequential sessions recycle one state.
func TestEngineSessionPoolReuse(t *testing.T) {
	d := genDesign(t, 0.004)
	e, err := New(d, delay.Default(), Config{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	var first *sched.Result
	for i := 0; i < 5; i++ {
		res, err := e.Run(Job{Options: sched.Options{Mode: timing.Early}})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
		} else if !sameTargets(res.Target, first.Target) {
			t.Fatalf("run %d diverged from run 0 on a recycled state", i)
		}
	}
	if n := e.StatesCreated(); n != 1 {
		t.Errorf("5 sequential sessions created %d states, want 1", n)
	}
}

// TestEngineRecycledStateIsPristine: a session that retimes and derates its
// state must not leak those overrides into the next session.
func TestEngineRecycledStateIsPristine(t *testing.T) {
	d := genDesign(t, 0.004)
	e, err := New(d, delay.Default(), Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	clean := serialReference(t, d, Job{Options: sched.Options{Mode: timing.Late}})
	if _, err := e.Run(Job{
		Options: sched.Options{Mode: timing.Late},
		Period:  d.Period * 2, DerateEarly: pf(1.1), DerateLate: pf(0.8),
	}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Job{Options: sched.Options{Mode: timing.Late}})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTargets(res.Target, clean.Target) {
		t.Error("what-if overrides leaked into the recycled state")
	}
	if e.StatesCreated() != 1 {
		t.Errorf("expected the single state to be recycled, created %d", e.StatesCreated())
	}
}

// TestEngineBoundsInFlight: MaxInFlight caps simultaneous sessions.
func TestEngineBoundsInFlight(t *testing.T) {
	d := genDesign(t, 0.004)
	e, err := New(d, delay.Default(), Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	var inFlight, maxSeen int64
	jobs := mixedJobs(d.Period)
	done := make(chan error, len(jobs))
	for range jobs {
		go func() {
			done <- e.Session(func(tm *timing.State) error {
				cur := atomic.AddInt64(&inFlight, 1)
				for {
					m := atomic.LoadInt64(&maxSeen)
					if cur <= m || atomic.CompareAndSwapInt64(&maxSeen, m, cur) {
						break
					}
				}
				_, err := core.Schedule(tm, core.Options{Mode: timing.Early})
				atomic.AddInt64(&inFlight, -1)
				return err
			})
		}()
	}
	for range jobs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if maxSeen > 2 {
		t.Errorf("observed %d simultaneous sessions, cap is 2", maxSeen)
	}
	if n := e.StatesCreated(); n > 2 {
		t.Errorf("created %d states with 2 slots", n)
	}
}

// TestEngineWhatIfPeriodMatchesRebuild: a Period-override session equals a
// from-scratch timer over a design whose Period was edited before compile.
func TestEngineWhatIfPeriodMatchesRebuild(t *testing.T) {
	d := genDesign(t, 0.004)
	probe := d.Period * 0.75

	alt := d.Clone()
	alt.Period = probe
	want := serialReference(t, alt, Job{Options: sched.Options{Mode: timing.Late}})

	e, err := New(d, delay.Default(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(Job{Options: sched.Options{Mode: timing.Late}, Period: probe})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTargets(got.Target, want.Target) {
		t.Error("what-if period session diverges from a rebuilt timer")
	}
	if got.Rounds != want.Rounds {
		t.Errorf("rounds %d vs %d", got.Rounds, want.Rounds)
	}
}

// TestEngineWhatIfDerateMatchesRebuild: a derate-override session equals a
// from-scratch timer built with those derates baked into the delay model.
func TestEngineWhatIfDerateMatchesRebuild(t *testing.T) {
	d := genDesign(t, 0.004)
	m := delay.Default()
	m.DerateEarly, m.DerateLate = 1.08, 0.9
	tm, err := timing.New(d, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Schedule(tm, core.Options{Mode: timing.Early})
	if err != nil {
		t.Fatal(err)
	}

	e, err := New(d, delay.Default(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(Job{
		Options:     sched.Options{Mode: timing.Early},
		DerateEarly: pf(1.08), DerateLate: pf(0.9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameTargets(got.Target, want.Target) {
		t.Error("what-if derate session diverges from a rebuilt timer")
	}
}
