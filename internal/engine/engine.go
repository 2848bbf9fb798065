// Package engine is the compile-once/schedule-many session layer: one
// immutable timing.Graph (compiled once from a design) serves many
// concurrent scheduling sessions, each on its own pooled timing.State.
//
// Sessions never mutate the design — schedulers only set predictive extra
// latencies, which live on the per-session state — so any number of
// sessions can share the graph. States are recycled through a free list
// (Reset restores the pristine post-compile snapshot), making the marginal
// cost of a session the state copy rather than a full graph build.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// PanicError is a panic recovered from a session callback or scheduler. The
// engine converts panics to errors so one crashing job cannot take down the
// process (or its sibling sessions); the state the panic ran on is discarded
// rather than recycled, since a panic can leave it half-mutated.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("session panicked: %v", e.Value)
}

// Config tunes an Engine.
type Config struct {
	// MaxInFlight bounds the number of sessions running simultaneously;
	// excess Session/Run calls block until a slot frees. 0 means
	// GOMAXPROCS.
	MaxInFlight int
}

// Engine owns one compiled timing graph and a pool of reusable states.
type Engine struct {
	g     *timing.Graph
	slots chan struct{}

	mu        sync.Mutex
	free      []*timing.State
	created   int
	discarded int
}

// New compiles the design once and returns an engine ready to run sessions
// against it. The design must not be mutated while the engine is in use.
func New(d *netlist.Design, m delay.Model, cfg Config) (*Engine, error) {
	g, err := timing.Compile(d, m)
	if err != nil {
		return nil, err
	}
	return NewFromGraph(g, cfg), nil
}

// NewFromGraph wraps an already-compiled graph — useful when the caller
// shares one graph between an engine and other consumers.
func NewFromGraph(g *timing.Graph, cfg Config) *Engine {
	n := cfg.MaxInFlight
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		g:     g,
		slots: make(chan struct{}, n),
	}
}

// Graph returns the shared compiled timing graph.
func (e *Engine) Graph() *timing.Graph { return e.g }

// StatesCreated reports how many states the engine has allocated so far —
// sessions beyond the peak concurrency reuse pooled states, so this stays
// at the high-water mark of simultaneous sessions.
func (e *Engine) StatesCreated() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.created
}

// StatesDiscarded reports how many states were thrown away because a session
// panicked on them (a panic can leave a state half-mutated, so it is never
// returned to the pool).
func (e *Engine) StatesDiscarded() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.discarded
}

// acquire pops a pooled state or creates a fresh one.
func (e *Engine) acquire() *timing.State {
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		e.mu.Unlock()
		return s
	}
	e.created++
	e.mu.Unlock()
	return e.g.NewState()
}

// release restores the state to its pristine snapshot and returns it to the
// pool.
func (e *Engine) release(s *timing.State) {
	s.SetRecorder(nil)
	s.SetCheck(nil)
	s.SetReq("")
	s.Reset()
	e.mu.Lock()
	e.free = append(e.free, s)
	e.mu.Unlock()
}

// Session runs fn on a pooled state, blocking first if MaxInFlight sessions
// are already running. The state is valid only for the duration of fn; it
// is reset and recycled afterwards, so fn must not retain it. A panic in fn
// is recovered into a *PanicError and the state is discarded, not recycled.
func (e *Engine) Session(fn func(tm *timing.State) error) error {
	return e.SessionContext(context.Background(), fn)
}

// SessionContext is Session with cancellable slot acquisition: if ctx is
// done before a slot frees up, it returns ctx's error without ever taking a
// state. ctx does NOT cancel fn itself — pass it through sched.Options
// (or Job.Options.Context) for cooperative in-run cancellation.
func (e *Engine) SessionContext(ctx context.Context, fn func(tm *timing.State) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// A free slot always wins over an already-done context: the context only
	// aborts an actual wait. With a slot in hand an expired deadline is the
	// schedulers' business — they stop cooperatively and return a partial
	// result instead of an error.
	select {
	case e.slots <- struct{}{}:
	default:
		select {
		case e.slots <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("session slot: %w", ctx.Err())
		}
	}
	defer func() { <-e.slots }()
	s := e.acquire()
	err, panicked := runGuarded(s, fn)
	if panicked {
		e.mu.Lock()
		e.discarded++
		e.mu.Unlock()
		return err
	}
	e.release(s)
	return err
}

// runGuarded invokes fn with panic isolation, reporting whether the state it
// ran on is now suspect.
func runGuarded(s *timing.State, fn func(tm *timing.State) error) (err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
			panicked = true
		}
	}()
	return fn(s), false
}

// Corner aliases timing.Corner: one analysis universe (period + derates) of
// a multi-corner job.
type Corner = timing.Corner

// Job describes one scheduling session: which scheduler to run, with what
// options, and optional per-session what-if timing overrides.
type Job struct {
	// Scheduler runs the job; nil selects the paper's core scheduler.
	Scheduler sched.Scheduler
	// Options is passed to the scheduler. Options.Recorder, when set, is
	// installed on the session state so timer-level instrumentation also
	// lands in it (and is detached before the state is recycled).
	Options sched.Options
	// Period, when nonzero, retimes the session to this what-if clock
	// period instead of the design's.
	Period float64
	// DerateEarly / DerateLate, when non-nil, override the respective delay
	// derate for this session; nil keeps the model's value. Pointer fields
	// distinguish "no override" from an explicit value, so an override can
	// round-trip any derate unambiguously — an explicit zero (or any
	// non-positive or non-finite value) is rejected with an error instead of
	// being silently ignored.
	DerateEarly *float64
	DerateLate  *float64
	// Corners, when non-empty, runs the job multi-corner: one pooled state
	// per corner, joined by a timing.CornerSet, so the scheduler optimizes
	// the worst-case envelope across every listed period/derate universe.
	// Period/DerateEarly/DerateLate above must stay unset — corners carry
	// their own. After (and the streamed round events) then see the
	// CornerSet view.
	Corners []Corner
	// Timeout, when positive, bounds this job's wall clock: Run derives a
	// context.WithTimeout from Options.Context (or context.Background())
	// and the scheduler stops cooperatively with a consistent partial
	// result and Result.StopReason = StopDeadline. The timeout also covers
	// waiting for a session slot.
	Timeout time.Duration
	// After, when non-nil, runs inside the session right after a successful
	// Schedule, while the scheduled latencies are still applied on the pooled
	// state — the only window in which post-schedule QoR (eval.Measure) can
	// be read, since the state is reset and recycled when Run returns. It
	// must not retain tm. A panic in After is isolated like any session panic.
	After func(tm sched.TimingView, res *sched.Result)
}

// derateOverride validates one pointer derate override against the job's
// "nil = keep" contract.
func derateOverride(name string, p *float64, cur float64) (float64, error) {
	if p == nil {
		return cur, nil
	}
	if v := *p; v > 0 && !math.IsInf(v, 1) {
		return v, nil
	}
	return 0, fmt.Errorf("engine: %s override %v is not a positive finite derate", name, *p)
}

// validate rejects job field combinations before any slot or state is taken.
func (job *Job) validate(designPeriod float64) error {
	if len(job.Corners) == 0 {
		if _, err := derateOverride("derate_early", job.DerateEarly, 1); err != nil {
			return err
		}
		if _, err := derateOverride("derate_late", job.DerateLate, 1); err != nil {
			return err
		}
		return nil
	}
	if job.Period != 0 || job.DerateEarly != nil || job.DerateLate != nil {
		return fmt.Errorf("engine: a multi-corner job must not also set top-level period/derate overrides")
	}
	if err := timing.ValidateCorners(designPeriod, job.Corners); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// Run executes one job on a pooled session state (or, with Corners set, on
// one state per corner joined into a timing.CornerSet). Cancellation (via
// Options.Context or Timeout) is not an error: the scheduler returns its
// partial result with Result.StopReason set. A scheduler panic comes back
// as a *PanicError.
func (e *Engine) Run(job Job) (*sched.Result, error) {
	if err := job.validate(e.g.Design().Period); err != nil {
		return nil, err
	}
	ctx := job.Options.Context
	if job.Timeout > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		tctx, cancel := context.WithTimeout(ctx, job.Timeout)
		defer cancel()
		ctx = tctx
		job.Options.Context = ctx // job is a value copy; the caller's is untouched
	}
	if len(job.Corners) > 0 {
		return e.runCorners(ctx, job)
	}
	var res *sched.Result
	err := e.SessionContext(ctx, func(tm *timing.State) error {
		if job.Period != 0 {
			tm.SetPeriod(job.Period)
		}
		if job.DerateEarly != nil || job.DerateLate != nil {
			de, dl := tm.Derates()
			de, _ = derateOverride("derate_early", job.DerateEarly, de)
			dl, _ = derateOverride("derate_late", job.DerateLate, dl)
			tm.SetDerates(de, dl)
		}
		if job.Options.Recorder != nil {
			tm.SetRecorder(job.Options.Recorder)
		}
		if req := obs.RequestID(job.Options.Context); req != "" {
			tm.SetReq(req)
		}
		s := job.Scheduler
		if s == nil {
			s = core.Scheduler
		}
		var err error
		res, err = s.Schedule(tm, job.Options)
		if err == nil && job.After != nil {
			job.After(tm, res)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return res, nil
}

// runCorners is Run's multi-corner body: one session slot, N pooled states
// (one per corner, each retimed/derated), joined into a CornerSet the
// scheduler optimizes as a single view. A panic discards every state of the
// set — any of them may be half-mutated.
func (e *Engine) runCorners(ctx context.Context, job Job) (*sched.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case e.slots <- struct{}{}:
	default:
		select {
		case e.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, fmt.Errorf("engine: session slot: %w", ctx.Err())
		}
	}
	defer func() { <-e.slots }()

	states := make([]*timing.State, len(job.Corners))
	names := make([]string, len(job.Corners))
	var res *sched.Result
	err, panicked := func() (err error, panicked bool) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Value: r, Stack: debug.Stack()}
				panicked = true
			}
		}()
		for i, c := range job.Corners {
			s := e.acquire()
			states[i] = s
			if c.Period != 0 {
				s.SetPeriod(c.Period)
			}
			if c.DerateEarly != 0 || c.DerateLate != 0 {
				de, dl := s.Derates()
				if c.DerateEarly != 0 {
					de = c.DerateEarly
				}
				if c.DerateLate != 0 {
					dl = c.DerateLate
				}
				s.SetDerates(de, dl)
			}
			names[i] = c.Name
		}
		cs, cerr := timing.NewCornerSetFrom(states, names)
		if cerr != nil {
			return cerr, false
		}
		if job.Options.Recorder != nil {
			cs.SetRecorder(job.Options.Recorder)
		}
		if req := obs.RequestID(job.Options.Context); req != "" {
			cs.SetReq(req)
		}
		s := job.Scheduler
		if s == nil {
			s = core.Scheduler
		}
		res, err = s.Schedule(cs, job.Options)
		if err == nil && job.After != nil {
			job.After(cs, res)
		}
		return err, false
	}()
	if panicked {
		n := 0
		for _, s := range states {
			if s != nil {
				n++
			}
		}
		e.mu.Lock()
		e.discarded += n
		e.mu.Unlock()
	} else {
		for _, s := range states {
			if s != nil {
				e.release(s)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return res, nil
}

// JobResult pairs one RunAll job's outcome with its error.
type JobResult struct {
	Result *sched.Result
	Err    error
}

// RunAll runs every job concurrently (bounded by MaxInFlight) and returns
// their results in job order.
func (e *Engine) RunAll(jobs []Job) []JobResult {
	out := make([]JobResult, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i].Result, out[i].Err = e.Run(jobs[i])
		}(i)
	}
	wg.Wait()
	return out
}
