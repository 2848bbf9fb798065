package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"iterskew"
	"iterskew/internal/delay"
	"iterskew/internal/engine"
	"iterskew/internal/eval"
	"iterskew/internal/fpm"
	"iterskew/internal/iccss"
	"iterskew/internal/netio"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/serve"
	"iterskew/internal/timing"
)

// serviceJSON is the -load harness's measurement of a live iterskewd daemon:
// N clients × M jobs of upload-once/schedule-many traffic, with latency
// percentiles, throughput, backpressure accounting, and a byte-identity
// verdict against in-process runs of the same jobs.
type serviceJSON struct {
	Addr          string `json:"addr"`
	Design        string `json:"design"`
	Clients       int    `json:"clients"`
	JobsPerClient int    `json:"jobs_per_client"`
	Completed     int    `json:"jobs_completed"`
	Streamed      int    `json:"jobs_streamed"`
	RoundLines    int    `json:"stream_round_lines"`
	// Rejected429 counts admission refusals; under more clients than the
	// daemon's -maxinflight it must be nonzero (the serve-smoke CI target
	// asserts this — backpressure reaching the client is the feature).
	Rejected429       int     `json:"rejected_429"`
	RetryAfterMissing int     `json:"retry_after_missing"`
	WallSec           float64 `json:"wall_s"`
	JobsPerSec        float64 `json:"jobs_per_s"`
	P50Ms             float64 `json:"latency_p50_ms"`
	P90Ms             float64 `json:"latency_p90_ms"`
	P99Ms             float64 `json:"latency_p99_ms"`
	MaxMs             float64 `json:"latency_max_ms"`
	// Identical asserts every job's schedule and QoR came back bit-for-bit
	// equal to an in-process engine run of the same (scheduler, period) spec.
	Identical bool `json:"identical_to_inprocess"`
	// Metrics is the /metrics cross-check: two scrapes bracketing the client
	// traffic, validated against the client's own accounting.
	Metrics *metricsJSON `json:"metrics,omitempty"`
}

// metricsJSON records the daemon's Prometheus exposition as seen by the load
// harness: scrape 1 lands after the upload (before client traffic), scrape 2
// after the last job. Consistent asserts the scraped deltas agree with the
// client side: serve_jobs_total moved by exactly the completed-job count, and
// the jobs route saw completed + 429-refused requests.
type metricsJSON struct {
	ExpositionValid bool  `json:"exposition_valid"`
	Series          int   `json:"series"`
	Monotonic       bool  `json:"counters_monotonic"`
	JobsDelta       int64 `json:"serve_jobs_total_delta"`
	JobsRouteDelta  int64 `json:"jobs_route_requests_delta"`
	SchedulerHists  bool  `json:"per_scheduler_histograms"`
	Consistent      bool  `json:"consistent_with_client"`
}

// scrapeMetrics GETs and validates one Prometheus exposition.
func scrapeMetrics(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		return nil, fmt.Errorf("%s: content type %q is not Prometheus text v0.0.4", url, ct)
	}
	return obs.ParseExposition(data)
}

// isMonotonicKind reports whether a sample name must never decrease.
func isMonotonicKind(name string) bool {
	return strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") ||
		strings.HasSuffix(name, "_bucket")
}

// checkMetrics derives the metrics block from the two scrapes plus the
// client-side accounting.
func checkMetrics(before, after map[string]float64, completed, jobsRejected int) *metricsJSON {
	mj := &metricsJSON{ExpositionValid: true, Series: len(after), Monotonic: true}
	for key, v1 := range before {
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !isMonotonicKind(name) {
			continue
		}
		if v2, ok := after[key]; ok && v2 < v1 {
			mj.Monotonic = false
			fmt.Fprintf(os.Stderr, "metrics: counter %s went backwards: %g -> %g\n", key, v1, v2)
		}
	}
	sumDelta := func(name, labelSel string) int64 {
		var d float64
		for key, v2 := range after {
			if !strings.HasPrefix(key, name+"{") || !strings.Contains(key, labelSel) {
				continue
			}
			d += v2 - before[key]
		}
		return int64(math.Round(d))
	}
	mj.JobsDelta = int64(math.Round(after["iterskew_serve_jobs_total"] - before["iterskew_serve_jobs_total"]))
	mj.JobsRouteDelta = sumDelta("iterskew_http_requests_total", `route="jobs"`)
	mj.SchedulerHists = true
	for _, schedName := range []string{"core", "iccss", "fpm"} {
		if after[fmt.Sprintf("iterskew_serve_job_seconds_count{scheduler=%q}", schedName)] <= 0 {
			mj.SchedulerHists = false
			fmt.Fprintf(os.Stderr, "metrics: no serve_job_seconds series for scheduler %s\n", schedName)
		}
	}
	mj.Consistent = mj.JobsDelta == int64(completed) &&
		mj.JobsRouteDelta == int64(completed+jobsRejected)
	if !mj.Consistent {
		fmt.Fprintf(os.Stderr,
			"metrics: scraped deltas disagree with client: jobs %d (want %d), jobs-route requests %d (want %d)\n",
			mj.JobsDelta, completed, mj.JobsRouteDelta, completed+jobsRejected)
	}
	return mj
}

// loadSpec returns job j's deterministic spec: schedulers rotate, what-if
// periods sweep a small ladder, every fourth job streams. All clients run the
// same M specs, so concurrent results must agree with the M serial references.
func loadSpec(j int, period float64) serve.JobSpec {
	spec := serve.JobSpec{
		Scheduler: []string{"core", "iccss", "fpm"}[j%3],
		Stream:    j%4 == 3,
	}
	if j%5 != 0 {
		spec.PeriodPS = period * (1 + 0.05*float64(j%5))
	}
	return spec
}

// refJob mirrors the daemon's JobSpec→engine.Job mapping for the reference
// runs (serve_test.go locks the mapping itself; here we only use the knobs
// the load specs exercise).
func refJob(spec serve.JobSpec, scheds map[string]sched.Scheduler) engine.Job {
	return engine.Job{
		Scheduler: scheds[spec.Scheduler],
		Options:   sched.Options{Mode: timing.Early},
		Period:    spec.PeriodPS,
	}
}

// runLoad drives a live daemon at addr: upload the selected design once,
// then clients × jobsPer scheduling jobs with bounded-retry backpressure
// handling, and merge a "service" block into the -json output.
func runLoad(addr, designs string, scale float64, clients, jobsPer int, jsonPath string) error {
	addr = strings.TrimRight(addr, "/")
	name := iterskew.SuperblueNames()[0]
	if designs != "all" {
		name = strings.TrimSpace(strings.Split(designs, ",")[0])
	}
	p, err := iterskew.SuperblueProfile(name, scale)
	if err != nil {
		return err
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		return err
	}
	var netBuf bytes.Buffer
	if err := netio.Write(&netBuf, d); err != nil {
		return err
	}

	sj := &serviceJSON{Addr: addr, Design: name, Clients: clients, JobsPerClient: jobsPer}
	client := &http.Client{}

	// Upload once; under a saturated daemon even the upload can get 429s.
	var up serve.UploadResponse
	body, _, err := postWithRetry(client, addr+"/v1/graphs", "text/plain", netBuf.Bytes(), sj, new(sync.Mutex))
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if err := json.Unmarshal(body, &up); err != nil {
		return fmt.Errorf("upload response: %w", err)
	}
	fmt.Printf("service load: %s (%d ffs) -> %s, handle %s...\n", name, up.FFs, addr, up.Handle[:12])

	// In-process references: same graph, same specs, serial.
	g, err := timing.Compile(d, delay.Default())
	if err != nil {
		return err
	}
	eng := engine.NewFromGraph(g, engine.Config{MaxInFlight: 1})
	scheds := map[string]sched.Scheduler{"core": nil, "iccss": iccss.Scheduler, "fpm": fpm.Scheduler}
	type ref struct {
		target map[iterskew.CellID]float64
		qor    eval.Metrics
	}
	refs := make([]ref, jobsPer)
	for j := range refs {
		job := refJob(loadSpec(j, d.Period), scheds)
		j := j
		job.After = func(tm sched.TimingView, _ *sched.Result) { refs[j].qor = eval.Measure(tm) }
		res, err := eng.Run(job)
		if err != nil {
			return fmt.Errorf("reference job %d: %w", j, err)
		}
		refs[j].target = res.Target
	}

	// Scrape 1: after the upload, before any client job traffic, so the job
	// deltas across the run are attributable to this harness alone.
	scrape1, err := scrapeMetrics(client, addr+"/metrics")
	if err != nil {
		return fmt.Errorf("metrics scrape 1: %w", err)
	}
	rejectedBefore := sj.Rejected429

	var (
		mu        sync.Mutex
		latencies []float64
		identical = true
		firstErr  error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < jobsPer; j++ {
				spec := loadSpec(j, d.Period)
				specBody, _ := json.Marshal(spec)
				t0 := time.Now()
				body, streamed, err := postWithRetry(client, addr+"/v1/graphs/"+up.Handle+"/jobs",
					"application/json", specBody, sj, &mu)
				lat := time.Since(t0)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("job %d: %w", j, err)
					}
					mu.Unlock()
					return
				}
				latencies = append(latencies, float64(lat.Nanoseconds())/1e6)
				sj.Completed++
				mu.Unlock()

				var jr serve.JobResponse
				if spec.Stream {
					rounds, err2 := decodeStream(body, &jr)
					mu.Lock()
					sj.Streamed++
					sj.RoundLines += rounds
					mu.Unlock()
					err = err2
				} else {
					err = json.Unmarshal(body, &jr)
				}
				if err == nil && streamed != spec.Stream {
					err = fmt.Errorf("job %d: stream=%v but chunked=%v", j, spec.Stream, streamed)
				}
				var got map[iterskew.CellID]float64
				if err == nil {
					got, err = jr.TargetCells()
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("job %d: %w", j, err)
					}
					mu.Unlock()
					return
				}
				r := refs[j]
				if !sameSchedule(got, r.target) ||
					math.Float64bits(jr.WNSEarlyPS) != math.Float64bits(r.qor.WNSEarly) ||
					math.Float64bits(jr.TNSEarlyPS) != math.Float64bits(r.qor.TNSEarly) {
					identical = false
					fmt.Fprintf(os.Stderr, "job %d: service result diverges from in-process run\n", j)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sj.WallSec = time.Since(start).Seconds()
	if firstErr != nil {
		return firstErr
	}
	scrape2, err := scrapeMetrics(client, addr+"/metrics")
	if err != nil {
		return fmt.Errorf("metrics scrape 2: %w", err)
	}
	sj.Metrics = checkMetrics(scrape1, scrape2, sj.Completed, sj.Rejected429-rejectedBefore)
	sj.Identical = identical
	if sj.WallSec > 0 {
		sj.JobsPerSec = float64(sj.Completed) / sj.WallSec
	}
	sort.Float64s(latencies)
	sj.P50Ms = pct(latencies, 50)
	sj.P90Ms = pct(latencies, 90)
	sj.P99Ms = pct(latencies, 99)
	if n := len(latencies); n > 0 {
		sj.MaxMs = latencies[n-1]
	}

	fmt.Printf("  %d clients x %d jobs: %d completed (%d streamed, %d round lines), %d x 429, %.1f jobs/s\n",
		clients, jobsPer, sj.Completed, sj.Streamed, sj.RoundLines, sj.Rejected429, sj.JobsPerSec)
	fmt.Printf("  latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n", sj.P50Ms, sj.P90Ms, sj.P99Ms, sj.MaxMs)
	fmt.Printf("  metrics: %d series, monotonic=%v, jobs delta %d, jobs-route delta %d, consistent=%v\n",
		sj.Metrics.Series, sj.Metrics.Monotonic, sj.Metrics.JobsDelta, sj.Metrics.JobsRouteDelta, sj.Metrics.Consistent)

	if jsonPath != "" {
		if err := mergeServiceJSON(jsonPath, sj); err != nil {
			return err
		}
		fmt.Printf("merged service block into %s\n", jsonPath)
	}
	if !identical {
		return fmt.Errorf("service results diverged from in-process runs")
	}
	if sj.RetryAfterMissing > 0 {
		return fmt.Errorf("%d x 429 without a Retry-After header", sj.RetryAfterMissing)
	}
	if !sj.Metrics.Monotonic || !sj.Metrics.Consistent || !sj.Metrics.SchedulerHists {
		return fmt.Errorf("/metrics cross-check failed (monotonic=%v consistent=%v scheduler_hists=%v)",
			sj.Metrics.Monotonic, sj.Metrics.Consistent, sj.Metrics.SchedulerHists)
	}
	fmt.Println("  all service schedules byte-identical to in-process runs")
	return nil
}

// postWithRetry POSTs body, absorbing 429 backpressure with a small
// exponential backoff (counting each refusal and checking its Retry-After
// header). Returns the response body and whether it arrived chunked.
func postWithRetry(client *http.Client, url, ctype string, body []byte, sj *serviceJSON, mu *sync.Mutex) ([]byte, bool, error) {
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, ctype, bytes.NewReader(body))
		if err != nil {
			return nil, false, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, false, err
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			chunked := len(resp.TransferEncoding) > 0 && resp.TransferEncoding[0] == "chunked"
			return data, chunked, nil
		case resp.StatusCode == http.StatusTooManyRequests:
			mu.Lock()
			sj.Rejected429++
			if resp.Header.Get("Retry-After") == "" {
				sj.RetryAfterMissing++
			}
			mu.Unlock()
			if attempt > 500 {
				return nil, false, fmt.Errorf("%s: still saturated after %d attempts", url, attempt)
			}
			backoff := time.Duration(1<<min(attempt, 5)) * time.Millisecond
			if backoff > 50*time.Millisecond {
				backoff = 50 * time.Millisecond
			}
			time.Sleep(backoff)
		default:
			return nil, false, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(data)))
		}
	}
}

// decodeStream consumes a JSONL job stream: counts "round" event lines and
// decodes the terminal "result" line into jr.
func decodeStream(body []byte, jr *serve.JobResponse) (rounds int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	final := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return rounds, fmt.Errorf("stream line: %w", err)
		}
		switch probe.Type {
		case "round":
			rounds++
		case "result":
			if err := json.Unmarshal(line, jr); err != nil {
				return rounds, err
			}
			final = true
		case "error":
			return rounds, fmt.Errorf("stream error: %s", probe.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return rounds, err
	}
	if !final {
		return rounds, fmt.Errorf("stream ended without a result line")
	}
	return rounds, nil
}

// mergeServiceJSON folds the service block into an existing (or fresh)
// BENCH_cssbench.json rather than clobbering the table the other modes wrote.
func mergeServiceJSON(path string, sj *serviceJSON) error {
	return mergeBench(path, func(out *benchJSON) { out.Service = sj })
}

// mergeBench loads the existing BENCH JSON (if any), lets set mutate one
// block, and writes the result back — so the harness modes compose instead
// of clobbering each other's sections.
func mergeBench(path string, set func(*benchJSON)) error {
	var out benchJSON
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &out); err != nil {
			return fmt.Errorf("%s: existing content: %w", path, err)
		}
	}
	set(&out)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pct returns the p'th percentile of sorted values (nearest-rank).
func pct(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}
