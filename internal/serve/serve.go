// Package serve is the CSS-as-a-service layer: an HTTP/JSON daemon over the
// compile-once/schedule-many engine. A client POSTs a netlist once and gets
// back the sha256 content handle of (netlist, delay model); the compiled
// timing graph lands in the engine's content-addressed LRU cache and any
// number of cheap what-if scheduling jobs can then be fired against the
// handle, each with its own scheduler, period, derates, and deadline, each
// running on a pooled session state.
//
// The daemon enforces the engine's robustness contract at the network edge:
//
//   - admission control: at most MaxInFlight uploads+jobs run at once; the
//     excess is refused immediately with 429 and a Retry-After header rather
//     than queued, so backpressure reaches the client instead of piling up
//     as goroutines;
//   - cooperative cancellation: a client that disconnects mid-job cancels it
//     through the request context — the scheduler stops at the next round
//     boundary and the session state goes back to the pool;
//   - streaming progress: a job with "stream":true answers as chunked JSONL,
//     one obs round event per line while the scheduler runs, terminated by a
//     "type":"result" line;
//   - graceful drain: Drain stops admitting (503), waits for in-flight work,
//     and returns once the daemon is quiescent — cmd/iterskewd wires it to
//     SIGTERM.
//
// Scheduler panics surface as 500s via the engine's *PanicError isolation;
// everything wrong with a request itself is a 4xx (see api.go).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/engine"
	"iterskew/internal/fpm"
	"iterskew/internal/graphio"
	"iterskew/internal/iccss"
	"iterskew/internal/netio"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/timing"
)

// Config tunes a Server.
type Config struct {
	// MaxInFlight bounds simultaneous admitted requests (uploads + jobs);
	// the excess gets 429 + Retry-After. 0 means GOMAXPROCS.
	MaxInFlight int
	// CacheBytes is the compiled-graph cache budget (engine.NewCache);
	// <= 0 means unbounded. Evicting a graph also drops its session engine —
	// its handle answers 404 until re-uploaded.
	CacheBytes int64
	// MaxBodyBytes caps request bodies (netlist uploads); 0 means 64 MiB.
	MaxBodyBytes int64
	// MaxJobRounds, when positive, clamps every job's MaxRounds — a
	// multi-tenant guard so no single client can request an effectively
	// unbounded iteration. 0 leaves the schedulers' own default cap.
	MaxJobRounds int
	// Recorder instruments the daemon (serve_* counters, cache
	// hit/miss/evict, in-flight gauge, and the labeled Prometheus families
	// behind GET /metrics); expose it through obs.DebugServer to get the ops
	// sidecar. nil means a private recorder — /v1/stats and /metrics always
	// work either way.
	Recorder *obs.Recorder
	// AccessLog, when non-nil, receives one structured JSONL line per
	// request (see AccessRecord). Writes are serialized; any io.Writer works.
	AccessLog io.Writer
	// Schedulers adds (or overrides) scheduler names beyond the built-in
	// "core", "iccss" and "fpm" — the robustness tests inject controllable
	// schedulers through it.
	Schedulers map[string]sched.Scheduler
}

// Server is the daemon: one compiled-graph cache, one engine per resident
// graph, one admission gate. Construct with New; serve Handler().
type Server struct {
	cfg         Config
	maxInFlight int
	maxBody     int64
	rec         *obs.Recorder
	cache       *engine.Cache
	scheds      map[string]sched.Scheduler
	slots       chan struct{}
	mux         *http.ServeMux
	metrics     metrics
	access      *accessLogger
	version     string
	goVersion   string

	mu      sync.Mutex
	engines map[graphio.Hash]*engine.Engine

	draining atomic.Bool
	inflight sync.WaitGroup
}

// New builds a ready-to-serve daemon.
func New(cfg Config) *Server {
	n := cfg.MaxInFlight
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 64 << 20
	}
	rec := cfg.Recorder
	if rec == nil {
		rec = obs.NewRecorder()
	}
	s := &Server{
		cfg:         cfg,
		maxInFlight: n,
		maxBody:     maxBody,
		rec:         rec,
		cache:       engine.NewCache(cfg.CacheBytes, rec),
		slots:       make(chan struct{}, n),
		engines:     map[graphio.Hash]*engine.Engine{},
		scheds: map[string]sched.Scheduler{
			"core":  core.Scheduler,
			"iccss": iccss.Scheduler,
			"fpm":   fpm.Scheduler,
		},
	}
	for name, sc := range cfg.Schedulers {
		s.scheds[name] = sc
	}
	s.cache.SetOnEvict(s.dropEngine)
	s.metrics = newMetrics(rec)
	s.access = newAccessLogger(cfg.AccessLog)
	s.version, s.goVersion = buildVersion()

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/graphs", s.instrument("upload", s.handleUpload))
	s.mux.HandleFunc("GET /v1/graphs/{handle}", s.instrument("graph_info", s.handleGraphInfo))
	s.mux.HandleFunc("POST /v1/graphs/{handle}/jobs", s.instrument("jobs", s.handleJob))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("GET /v1/healthz", s.instrument("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /v1/version", s.instrument("version", s.handleVersion))
	s.mux.Handle("GET /metrics", s.instrument("metrics", obs.MetricsHandler(rec).ServeHTTP))
	return s
}

// Handler returns the daemon's HTTP surface (a private mux; mount it on any
// http.Server or httptest.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops admitting new work (every subsequent request gets 503) and
// blocks until all in-flight requests finish or ctx expires. It is the
// SIGTERM path: drain, then shut the http.Server down.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// dropEngine forgets the session engine of an evicted graph so the graph's
// slabs can actually be collected (in-flight jobs keep theirs alive until
// they finish). Called by the cache after its lock is released.
func (s *Server) dropEngine(key graphio.Hash) {
	s.mu.Lock()
	delete(s.engines, key)
	s.mu.Unlock()
}

// engineFor returns (creating on first use) the session engine of a resident
// graph. If the cache re-admitted a new compile of the same content, the
// engine is rebuilt around the new graph pointer; pooled states of the old
// one die with it.
func (s *Server) engineFor(key graphio.Hash, g *timing.Graph) *engine.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.engines[key]; ok && e.Graph() == g {
		return e
	}
	e := engine.NewFromGraph(g, engine.Config{MaxInFlight: s.maxInFlight})
	s.engines[key] = e
	return e
}

// admit gates one unit of heavy work: refused outright while draining,
// refused with 429 + Retry-After when every slot is busy. On success the
// caller must invoke the returned release exactly once. The time spent here
// is recorded as the request's queue wait.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	t0 := time.Now()
	defer func() { infoFrom(r).queue = time.Since(t0) }()
	if s.draining.Load() {
		writeErr(w, r, http.StatusServiceUnavailable, "draining: not accepting new work")
		return nil, false
	}
	s.inflight.Add(1)
	if s.draining.Load() {
		// Drain began between the check and the Add; refuse so Drain's Wait
		// is never extended by late arrivals.
		s.inflight.Done()
		writeErr(w, r, http.StatusServiceUnavailable, "draining: not accepting new work")
		return nil, false
	}
	select {
	case s.slots <- struct{}{}:
	default:
		s.inflight.Done()
		s.rec.Add(obs.CtrServeRejected, 1)
		w.Header().Set("Retry-After", "1")
		writeErr(w, r, http.StatusTooManyRequests, "saturated: all session slots busy")
		return nil, false
	}
	s.rec.SetGauge(obs.GaugeServeInFlight, int64(len(s.slots)))
	return func() {
		<-s.slots
		s.rec.SetGauge(obs.GaugeServeInFlight, int64(len(s.slots)))
		s.inflight.Done()
	}, true
}

// handleUpload ingests a netlist, validates it, and ensures its compiled
// graph is resident. Every upload parses, validates and hashes the netlist
// once; a re-upload of known content skips only the compile.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	d, err := netio.Read(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "netlist: "+err.Error())
		return
	}
	if err := sched.ValidateInput(d); err != nil {
		writeErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	m := delay.Default()
	key, err := graphio.HashOf(d, m)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	g, hit, err := s.cache.GetHashed(key, d, m)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "compile: "+err.Error())
		return
	}
	s.engineFor(key, g)
	s.rec.Add(obs.CtrServeUploads, 1)
	st := d.Stats()
	writeJSON(w, http.StatusOK, UploadResponse{
		Handle:   key.String(),
		Cached:   hit,
		Cells:    st.Cells,
		FFs:      st.FFs,
		Nets:     st.Nets,
		PeriodPS: d.Period,
	})
}

// handleGraphInfo answers with a resident graph's shape, or 404.
func (s *Server) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	key, err := parseHandle(r.PathValue("handle"))
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	g, ok := s.cache.Lookup(key)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "unknown graph handle (not uploaded, or evicted)")
		return
	}
	st := g.Design().Stats()
	writeJSON(w, http.StatusOK, GraphInfo{
		Handle:     key.String(),
		Cells:      st.Cells,
		FFs:        st.FFs,
		Nets:       st.Nets,
		PeriodPS:   g.Design().Period,
		GraphBytes: g.Bytes(),
	})
}

// handleJob runs one scheduling session against a resident graph.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	key, err := parseHandle(r.PathValue("handle"))
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, r, http.StatusBadRequest, "job spec: "+err.Error())
		return
	}
	name := spec.Scheduler
	if name == "" {
		name = "core"
	}
	scheduler, ok := s.scheds[name]
	if !ok {
		writeErr(w, r, http.StatusBadRequest, "unknown scheduler "+name)
		return
	}
	mode, err := parseMode(spec.Mode)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if _, err := wireDerate("derate_early", spec.DerateEarly); err != nil {
		writeErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if _, err := wireDerate("derate_late", spec.DerateLate); err != nil {
		writeErr(w, r, http.StatusBadRequest, err.Error())
		return
	}
	corners, err := spec.cornerList()
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err.Error())
		return
	}

	info := infoFrom(r)
	info.handle, info.scheduler = key.String(), name

	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()

	g, ok := s.cache.Lookup(key)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "unknown graph handle (not uploaded, or evicted)")
		return
	}
	eng := s.engineFor(key, g)

	opts := spec.options(mode, s.cfg.MaxJobRounds)
	opts.Context = r.Context() // client disconnect cancels the job; carries the request ID
	job := engine.Job{
		Scheduler:   scheduler,
		Options:     opts,
		Period:      spec.PeriodPS,
		DerateEarly: spec.DerateEarly,
		DerateLate:  spec.DerateLate,
		Corners:     corners,
	}
	if spec.TimeoutMS > 0 {
		job.Timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}

	// Streaming replies commit to 200 up front: round events flow as the
	// scheduler produces them, and any later failure becomes a terminal
	// "type":"error" line instead of a status code.
	var stream *flushWriter
	if spec.Stream {
		h := w.Header()
		h.Set("Content-Type", "application/x-ndjson")
		h.Set("X-Accel-Buffering", "no")
		w.WriteHeader(http.StatusOK)
		stream = newFlushWriter(w)
		rec := obs.NewRecorder()
		rec.EnableEvents(stream)
		// Events stream to this client stamped with the request ID; spans
		// land request-tagged in the daemon-wide trace.
		rec.SetReq(info.id)
		rec.AdoptTracer(s.rec)
		rec.Emit(obs.Event{Type: "run", Method: name, Design: key.String()})
		job.Options.Recorder = rec
		s.rec.Add(obs.CtrServeStreams, 1)
	} else {
		// Non-streamed jobs instrument the daemon recorder: scheduler rounds,
		// timer spans, and span histograms aggregate daemon-wide (request-
		// tagged via the job context).
		job.Options.Recorder = s.rec
	}

	// QoR (and, for corner jobs, the per-corner breakdown) can only be read
	// inside the session, while the latencies are still applied. The answer
	// reports WNS and TNS only, so no wirelength or violation count is taken.
	var wnsE, tnsE, wnsL, tnsL float64
	var cornerRes []CornerResult
	var cornerDiff int
	job.After = func(tm sched.TimingView, _ *sched.Result) {
		wnsE, tnsE = tm.WNSTNS(timing.Early)
		wnsL, tnsL = tm.WNSTNS(timing.Late)
		cv, ok := tm.(sched.CornerView)
		if !ok {
			return
		}
		cornerDiff = cv.UnionDiffRounds()
		cornerRes = make([]CornerResult, cv.NumCorners())
		for i := range cornerRes {
			we, te := cv.CornerWNSTNS(i, timing.Early)
			wl, tl := cv.CornerWNSTNS(i, timing.Late)
			cornerRes[i] = CornerResult{
				Name: cv.CornerName(i), PeriodPS: corners[i].Period,
				WNSEarlyPS: we, TNSEarlyPS: te, WNSLatePS: wl, TNSLatePS: tl,
			}
		}
	}

	res, err := eng.Run(job)
	if err != nil {
		var deg *sched.DegenerateInputError
		code := http.StatusInternalServerError
		if errors.As(err, &deg) {
			code = http.StatusBadRequest
		}
		info.stop = "error"
		if stream != nil {
			_ = json.NewEncoder(stream).Encode(struct {
				Type  string `json:"type"`
				Req   string `json:"req,omitempty"`
				Error string `json:"error"`
			}{"error", info.id, err.Error()})
			return
		}
		writeErr(w, r, code, err.Error())
		return
	}

	s.rec.Add(obs.CtrServeJobs, 1)
	if res.StopReason == sched.StopCancelled {
		s.rec.Add(obs.CtrServeCancelled, 1)
	}
	info.stop = res.StopReason.String()
	s.metrics.jobOutcomes.Add(1, name, info.stop)
	s.metrics.jobSeconds.Observe(res.Elapsed.Seconds(), name)
	s.metrics.jobRounds.Observe(float64(res.Rounds), name)
	qorEv := obs.Event{
		Type: "qor", Req: info.id, Method: name, Design: key.String(),
		Mode: mode.String(), Round: res.Rounds, NewEdges: res.EdgesExtracted,
		WNS: wnsL, TNS: tnsL,
		ElapsedMS: float64(res.Elapsed.Nanoseconds()) / 1e6,
	}
	if len(cornerRes) > 0 {
		qorEv.Corners = make([]obs.CornerStat, len(cornerRes))
		for i, c := range cornerRes {
			qorEv.Corners[i] = obs.CornerStat{Name: c.Name, WNS: c.WNSLatePS, TNS: c.TNSLatePS}
			s.metrics.cornerJobs.Add(1, name, c.Name)
		}
	}
	if job.Options.Recorder != s.rec {
		job.Options.Recorder.Emit(qorEv)
	}
	s.rec.Emit(qorEv)

	out := JobResponse{
		Type:             "result",
		Handle:           key.String(),
		Scheduler:        name,
		Mode:             mode.String(),
		StopReason:       res.StopReason.String(),
		Rounds:           res.Rounds,
		Cycles:           res.Cycles,
		EdgesExtracted:   res.EdgesExtracted,
		ElapsedMS:        float64(res.Elapsed.Nanoseconds()) / 1e6,
		WNSEarlyPS:       wnsE,
		TNSEarlyPS:       tnsE,
		WNSLatePS:        wnsL,
		TNSLatePS:        tnsL,
		Corners:          cornerRes,
		CornerDiffRounds: cornerDiff,
		Target:           targetWire(res.Target),
	}
	if stream != nil {
		_ = json.NewEncoder(stream).Encode(out)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStats reports the daemon's live residency and traffic counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.cache.Stats()
	var created, discarded int
	s.mu.Lock()
	for _, e := range s.engines {
		created += e.StatesCreated()
		discarded += e.StatesDiscarded()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, StatsResponse{
		Version:         s.version,
		Graphs:          cs.Graphs,
		GraphBytes:      cs.Bytes,
		InFlight:        len(s.slots),
		MaxInFlight:     s.maxInFlight,
		Draining:        s.draining.Load(),
		StatesCreated:   created,
		StatesDiscarded: discarded,
		Uploads:         s.rec.Counter(obs.CtrServeUploads),
		Jobs:            s.rec.Counter(obs.CtrServeJobs),
		Rejected:        s.rec.Counter(obs.CtrServeRejected),
		Cancelled:       s.rec.Counter(obs.CtrServeCancelled),
		Streams:         s.rec.Counter(obs.CtrServeStreams),
	})
}

// handleHealth is the readiness probe: 200 while admitting, 503 once
// draining.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

// targetWire converts a schedule to its wire form (decimal cell IDs).
func targetWire(t map[netlist.CellID]float64) map[string]float64 {
	out := make(map[string]float64, len(t))
	for ff, l := range t {
		out[strconv.Itoa(int(ff))] = l
	}
	return out
}

// writeJSON answers with v as one line of JSON. It marshals v before it
// writes the status, so a value that cannot be encoded (a NaN or ±Inf
// float) answers 500 with an ErrorResponse instead of an empty 200.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = json.Marshal(ErrorResponse{Error: "encode response: " + err.Error()}) // strings always encode
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(b, '\n'))
}

func writeErr(w http.ResponseWriter, r *http.Request, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg, RequestID: infoFrom(r).id})
}

// flushWriter pushes every write through to the client immediately — the
// JSONL stream is a progress feed, so buffering it defeats the point.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func newFlushWriter(w http.ResponseWriter) *flushWriter {
	fw := &flushWriter{w: w}
	if f, ok := w.(http.Flusher); ok {
		fw.f = f
	}
	return fw
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}
