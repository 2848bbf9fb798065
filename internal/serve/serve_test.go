package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/eval"
	"iterskew/internal/fuzz"
	"iterskew/internal/geom"
	"iterskew/internal/graphio"
	"iterskew/internal/netio"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/serve"
	"iterskew/internal/timing"
)

var update = flag.Bool("update", false, "rewrite the golden response fixtures")

func genDesign(t testing.TB, seed int64) *netlist.Design {
	t.Helper()
	d, err := fuzz.Generate(fuzz.FromSeed(seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return d
}

func netText(t testing.TB, d *netlist.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := netio.Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newServer spins up a daemon on an httptest listener and returns both the
// serve.Server (for Drain etc.) and the test server.
func newServer(t testing.TB, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func upload(t testing.TB, ts *httptest.Server, body []byte) serve.UploadResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: HTTP %d: %s", resp.StatusCode, data)
	}
	var up serve.UploadResponse
	if err := json.Unmarshal(data, &up); err != nil {
		t.Fatalf("upload response: %v", err)
	}
	return up
}

// postJob fires one job and returns the raw response.
func postJob(t testing.TB, ts *httptest.Server, handle string, spec serve.JobSpec) (int, []byte, http.Header) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs/"+handle+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header
}

func decodeJob(t testing.TB, data []byte) serve.JobResponse {
	t.Helper()
	var jr serve.JobResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		t.Fatalf("job response: %v\n%s", err, data)
	}
	return jr
}

// reference runs the same scheduling job in-process on a fresh state and
// returns the targets plus post-schedule QoR — the byte-identity oracle.
func reference(t testing.TB, d *netlist.Design, scheduler sched.Scheduler, opts sched.Options, period float64) (map[netlist.CellID]float64, eval.Metrics) {
	t.Helper()
	g, err := timing.Compile(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	tm := g.NewState()
	if period != 0 {
		tm.SetPeriod(period)
	}
	res, err := scheduler.Schedule(tm, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.Target, eval.Measure(tm)
}

func sameTargets(t testing.TB, jr serve.JobResponse, want map[netlist.CellID]float64) {
	t.Helper()
	got, err := jr.TargetCells()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("target size: got %d, want %d", len(got), len(want))
	}
	for ff, w := range want {
		g, ok := got[ff]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("target[%d]: got %v, want %v (bitwise)", ff, g, w)
		}
	}
}

func TestUploadScheduleRoundTrip(t *testing.T) {
	d := genDesign(t, 16)
	_, ts := newServer(t, serve.Config{})
	up := upload(t, ts, netText(t, d))

	key, err := graphio.HashOf(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	if up.Handle != key.String() {
		t.Fatalf("handle = %s, want content hash %s", up.Handle, key.String())
	}
	if up.Cached {
		t.Fatalf("first upload reported cached")
	}
	st := d.Stats()
	if up.Cells != st.Cells || up.FFs != st.FFs || up.PeriodPS != d.Period {
		t.Fatalf("upload shape %+v does not match design stats %+v", up, st)
	}

	// Re-upload: same handle, pure cache hit.
	up2 := upload(t, ts, netText(t, d))
	if up2.Handle != up.Handle || !up2.Cached {
		t.Fatalf("re-upload = %+v, want cached hit on %s", up2, up.Handle)
	}

	// The daemon's schedule must be byte-identical to an in-process run of
	// the same scheduler on a fresh state — across every scheduler and both
	// modes, with and without a what-if period.
	cases := []struct {
		name string
		spec serve.JobSpec
		sch  sched.Scheduler
		opts sched.Options
	}{
		{"core-early", serve.JobSpec{}, core.Scheduler, sched.Options{Mode: timing.Early}},
		{"core-late", serve.JobSpec{Mode: "late"}, core.Scheduler, sched.Options{Mode: timing.Late}},
		{"core-whatif", serve.JobSpec{PeriodPS: d.Period * 1.1}, core.Scheduler, sched.Options{Mode: timing.Early}},
		{"core-margin", serve.JobSpec{MarginPS: 5}, core.Scheduler, sched.Options{Mode: timing.Early, Margin: 5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, data, _ := postJob(t, ts, up.Handle, tc.spec)
			if code != http.StatusOK {
				t.Fatalf("HTTP %d: %s", code, data)
			}
			jr := decodeJob(t, data)
			wantT, wantQ := reference(t, d, tc.sch, tc.opts, tc.spec.PeriodPS)
			sameTargets(t, jr, wantT)
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"wns_early", jr.WNSEarlyPS, wantQ.WNSEarly},
				{"tns_early", jr.TNSEarlyPS, wantQ.TNSEarly},
				{"wns_late", jr.WNSLatePS, wantQ.WNSLate},
				{"tns_late", jr.TNSLatePS, wantQ.TNSLate},
			} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Fatalf("%s: got %v, want %v (bitwise)", f.name, f.got, f.want)
				}
			}
			if jr.StopReason != sched.StopConverged.String() {
				t.Fatalf("stop_reason = %s, want converged", jr.StopReason)
			}
			if jr.Handle != up.Handle || jr.Type != "result" {
				t.Fatalf("response envelope %+v", jr)
			}
		})
	}
}

// noFFDesign builds a netio-serializable design with clock scaffolding but
// zero flip-flops — schedulers must refuse it with a typed 400.
func noFFDesign(t testing.TB) *netlist.Design {
	t.Helper()
	lib := netlist.StdLib()
	d := netlist.NewDesign("noffs", 500)
	d.Die = geom.RectOf(geom.Pt(0, 0), geom.Pt(1000, 1000))
	d.LCBMaxFanout = 50
	root := d.AddCell("clkroot", lib.Get("CLKROOT"), d.Die.Center())
	lcb := d.AddCell("lcb0", lib.Get("LCB"), geom.Pt(500, 400))
	cn := d.Connect("clk_root", d.OutPin(root), d.LCBIn(lcb))
	d.Nets[cn].IsClock = true
	cl := d.Connect("clk_l0", d.LCBOut(lcb))
	d.Nets[cl].IsClock = true
	in := d.AddCell("in0", lib.Get("PORTIN"), geom.Pt(0, 0))
	out := d.AddCell("out0", lib.Get("PORTOUT"), geom.Pt(1000, 0))
	d.Connect("n", d.OutPin(in), d.Cells[out].Pins[0])
	return d
}

func TestAPIErrors(t *testing.T) {
	d := genDesign(t, 3)
	_, ts := newServer(t, serve.Config{})
	up := upload(t, ts, netText(t, d))
	goodHandle := up.Handle
	unknownHandle := strings.Repeat("ab", 32)

	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantSub  string // substring of the JSON error message
	}{
		{"garbage-netlist", "POST", "/v1/graphs", "not a netlist", http.StatusBadRequest, "netlist:"},
		{"empty-netlist", "POST", "/v1/graphs", "", http.StatusBadRequest, "netlist:"},
		{"degenerate-no-ffs", "POST", "/v1/graphs", string(netText(t, noFFDesign(t))), http.StatusBadRequest, "no flip-flops"},
		{"job-unknown-handle", "POST", "/v1/graphs/" + unknownHandle + "/jobs", "{}", http.StatusNotFound, "unknown graph handle"},
		{"job-bad-handle", "POST", "/v1/graphs/zz/jobs", "{}", http.StatusBadRequest, "64 hex characters"},
		{"job-malformed-json", "POST", "/v1/graphs/" + goodHandle + "/jobs", "{", http.StatusBadRequest, "job spec"},
		{"job-unknown-field", "POST", "/v1/graphs/" + goodHandle + "/jobs", `{"schedular":"core"}`, http.StatusBadRequest, "job spec"},
		{"job-unknown-scheduler", "POST", "/v1/graphs/" + goodHandle + "/jobs", `{"scheduler":"magic"}`, http.StatusBadRequest, "unknown scheduler"},
		{"job-removed-scheduler", "POST", "/v1/graphs/" + goodHandle + "/jobs", `{"scheduler":"adaptive"}`, http.StatusBadRequest, "unknown scheduler"},
		{"job-removed-field", "POST", "/v1/graphs/" + goodHandle + "/jobs", `{"scheduler":"adaptive","adaptive":{"probe_rounds":3}}`, http.StatusBadRequest, "job spec"},
		{"job-unknown-mode", "POST", "/v1/graphs/" + goodHandle + "/jobs", `{"mode":"sideways"}`, http.StatusBadRequest, "unknown mode"},
		{"job-negative-period", "POST", "/v1/graphs/" + goodHandle + "/jobs", `{"period_ps":-10}`, http.StatusBadRequest, "period"},
		{"info-unknown-handle", "GET", "/v1/graphs/" + unknownHandle, "", http.StatusNotFound, "unknown graph handle"},
		{"info-bad-handle", "GET", "/v1/graphs/nope", "", http.StatusBadRequest, "64 hex characters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("HTTP %d, want %d: %s", resp.StatusCode, tc.wantCode, data)
			}
			var e serve.ErrorResponse
			if err := json.Unmarshal(data, &e); err != nil {
				t.Fatalf("error body is not ErrorResponse JSON: %v\n%s", err, data)
			}
			if !strings.Contains(e.Error, tc.wantSub) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.wantSub)
			}
		})
	}

	t.Run("degenerate-error-is-typed", func(t *testing.T) {
		// The no-FF refusal must be sched's typed DegenerateInputError text,
		// not a generic compile failure.
		var deg *sched.DegenerateInputError
		err := sched.ValidateInput(noFFDesign(t))
		if !errors.As(err, &deg) {
			t.Fatalf("ValidateInput = %v, want *DegenerateInputError", err)
		}
		code, data, _ := postJob(t, ts, goodHandle, serve.JobSpec{})
		if code != http.StatusOK {
			t.Fatalf("good job after error battery: HTTP %d: %s", code, data)
		}
	})
}

func TestGraphInfoAndStats(t *testing.T) {
	d := genDesign(t, 5)
	_, ts := newServer(t, serve.Config{})
	up := upload(t, ts, netText(t, d))

	resp, err := http.Get(ts.URL + "/v1/graphs/" + up.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gi serve.GraphInfo
	if err := json.NewDecoder(resp.Body).Decode(&gi); err != nil {
		t.Fatal(err)
	}
	if gi.Handle != up.Handle || gi.FFs != up.FFs || gi.GraphBytes <= 0 {
		t.Fatalf("graph info %+v does not match upload %+v", gi, up)
	}

	if code, data, _ := postJob(t, ts, up.Handle, serve.JobSpec{}); code != http.StatusOK {
		t.Fatalf("job: HTTP %d: %s", code, data)
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Graphs != 1 || st.Uploads != 1 || st.Jobs != 1 || st.Draining {
		t.Fatalf("stats %+v, want 1 graph / 1 upload / 1 job, not draining", st)
	}
	if st.GraphBytes != gi.GraphBytes {
		t.Fatalf("stats bytes %d != graph info bytes %d", st.GraphBytes, gi.GraphBytes)
	}

	hresp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", hresp.StatusCode)
	}
}

func TestEvictionDropsHandle(t *testing.T) {
	d0, d1 := genDesign(t, 11), genDesign(t, 12)
	rec := obs.NewRecorder()
	// Budget below two graphs: the second upload evicts the first.
	g0, err := timing.Compile(d0, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, serve.Config{CacheBytes: g0.Bytes() + 1, Recorder: rec})

	up0 := upload(t, ts, netText(t, d0))
	up1 := upload(t, ts, netText(t, d1))
	if up0.Handle == up1.Handle {
		t.Fatalf("distinct designs share a handle")
	}

	code, data, _ := postJob(t, ts, up0.Handle, serve.JobSpec{})
	if code != http.StatusNotFound {
		t.Fatalf("job on evicted handle: HTTP %d (%s), want 404", code, data)
	}
	if code, data, _ = postJob(t, ts, up1.Handle, serve.JobSpec{}); code != http.StatusOK {
		t.Fatalf("job on resident handle: HTTP %d: %s", code, data)
	}
	if ev := rec.Counter(obs.CtrGraphCacheEvicts); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestStreamingJob(t *testing.T) {
	d := genDesign(t, 16)
	_, ts := newServer(t, serve.Config{})
	up := upload(t, ts, netText(t, d))

	// Non-streamed twin for comparison.
	code, plain, _ := postJob(t, ts, up.Handle, serve.JobSpec{})
	if code != http.StatusOK {
		t.Fatalf("plain job: HTTP %d: %s", code, plain)
	}
	want := decodeJob(t, plain)

	body, err := json.Marshal(serve.JobSpec{Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/graphs/"+up.Handle+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream job: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("stream content type = %q, want ndjson", ct)
	}

	var runs, rounds, qors int
	var got serve.JobResponse
	gotFinal := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		switch probe.Type {
		case "run":
			runs++
		case "round":
			rounds++
		case "qor":
			qors++
		case "result":
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			gotFinal = true
		default:
			t.Fatalf("unexpected stream line type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if runs != 1 || rounds < 1 || qors != 1 || !gotFinal {
		t.Fatalf("stream shape: %d run lines, %d round lines, %d qor lines, final=%v",
			runs, rounds, qors, gotFinal)
	}
	if rounds != got.Rounds {
		t.Fatalf("streamed %d round events but result reports %d rounds", rounds, got.Rounds)
	}

	// The streamed result must equal the plain one bitwise (elapsed differs).
	got.ElapsedMS, want.ElapsedMS = 0, 0
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if !bytes.Equal(gj, wj) {
		t.Fatalf("streamed result diverges from plain job:\n%s\n%s", gj, wj)
	}
}

// TestGoldenResponses locks the wire format: the JSON bodies for a fixed
// seed-1 design must match the committed fixtures byte for byte (run with
// -update to regenerate after an intentional schema change). Elapsed time is
// zeroed before comparison; everything else is deterministic.
func TestGoldenResponses(t *testing.T) {
	d, err := fuzz.Generate(fuzz.FromSeed(16))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, serve.Config{})

	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(netText(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	uploadRaw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: HTTP %d: %s", resp.StatusCode, uploadRaw)
	}
	checkGolden(t, "upload.json", normalizeJSON(t, uploadRaw, nil))

	var up serve.UploadResponse
	if err := json.Unmarshal(uploadRaw, &up); err != nil {
		t.Fatal(err)
	}
	code, jobRaw, _ := postJob(t, ts, up.Handle, serve.JobSpec{Scheduler: "core"})
	if code != http.StatusOK {
		t.Fatalf("job: HTTP %d: %s", code, jobRaw)
	}
	checkGolden(t, "job.json", normalizeJSON(t, jobRaw, func(m map[string]any) {
		m["elapsed_ms"] = 0.0
	}))

	code, errRaw, _ := postJob(t, ts, up.Handle, serve.JobSpec{Scheduler: "magic"})
	if code != http.StatusBadRequest {
		t.Fatalf("bad scheduler: HTTP %d", code)
	}
	checkGolden(t, "error.json", normalizeJSON(t, errRaw, func(m map[string]any) {
		// The request ID is random per request; pin it for the fixture.
		m["request_id"] = "REQUEST_ID"
	}))
}

// normalizeJSON round-trips a response body through a map (applying fix, for
// nondeterministic fields) and re-marshals it indented with sorted keys.
func normalizeJSON(t testing.TB, raw []byte, fix func(map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("normalize: %v\n%s", err, raw)
	}
	if fix != nil {
		fix(m)
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run Golden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden fixture:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestMaxJobRoundsClamp proves the server-wide round cap reaches the
// scheduler: with a clamp of 1 the job must stop at the round cap.
func TestMaxJobRoundsClamp(t *testing.T) {
	d := genDesign(t, 16)
	_, ts := newServer(t, serve.Config{MaxJobRounds: 1})
	up := upload(t, ts, netText(t, d))
	code, data, _ := postJob(t, ts, up.Handle, serve.JobSpec{MaxRounds: 100000})
	if code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, data)
	}
	jr := decodeJob(t, data)
	if jr.Rounds > 1 {
		t.Fatalf("rounds = %d, clamp of 1 did not hold", jr.Rounds)
	}
}
