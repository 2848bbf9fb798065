package serve_test

// FuzzServeRequest hammers the daemon's request decoding the way
// FuzzGraphCodec hammers the graph codec: arbitrary bytes as netlist
// uploads, job specs, and URL handles must never panic the daemon or
// surface as a 5xx — everything wrong with a request is a 4xx by contract
// (a 429 under self-inflicted saturation is also acceptable).

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"iterskew/internal/fuzz"
	"iterskew/internal/serve"
)

// fuzzClient bounds every request: a handler that hangs fails the input
// with a transport error instead of stalling the fuzzer.
var fuzzClient = &http.Client{Timeout: 10 * time.Second}

var fuzzSrv struct {
	once   sync.Once
	ts     *httptest.Server
	handle string
	err    error
}

// fuzzServer lazily builds one shared daemon (tight limits so fuzz inputs
// stay cheap) with a known-good handle already resident. The server lives
// for the whole fuzzing process.
func fuzzServer(t testing.TB) (*httptest.Server, string) {
	fuzzSrv.once.Do(func() {
		s := serve.New(serve.Config{
			MaxInFlight:  2,
			MaxBodyBytes: 1 << 20,
			CacheBytes:   64 << 20,
			MaxJobRounds: 4,
		})
		fuzzSrv.ts = httptest.NewServer(s.Handler())
		d, err := fuzz.Generate(fuzz.FromSeed(16))
		if err != nil {
			fuzzSrv.err = err
			return
		}
		resp, err := fuzzClient.Post(fuzzSrv.ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(netText(t, d)))
		if err != nil {
			fuzzSrv.err = err
			return
		}
		defer resp.Body.Close()
		var up serve.UploadResponse
		if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
			fuzzSrv.err = err
			return
		}
		fuzzSrv.handle = up.Handle
	})
	if fuzzSrv.err != nil {
		t.Fatal(fuzzSrv.err)
	}
	return fuzzSrv.ts, fuzzSrv.handle
}

func FuzzServeRequest(f *testing.F) {
	// Seed the three request kinds; the on-disk corpus in
	// testdata/fuzz/FuzzServeRequest adds adversarial variants.
	d, err := fuzz.Generate(fuzz.FromSeed(16))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(byte(0), netText(f, d))
	f.Add(byte(0), []byte("iterskew-netlist v1\ndesign x\nperiod -5\n"))
	f.Add(byte(1), []byte(`{"scheduler":"iccss","stream":true}`))
	f.Add(byte(1), []byte(`{"period_ps":1e308,"max_rounds":999999}`))
	f.Add(byte(2), []byte("../../etc/passwd"))

	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		ts, handle := fuzzServer(t)
		var resp *http.Response
		var err error
		switch kind % 3 {
		case 0: // arbitrary bytes as a netlist upload
			resp, err = fuzzClient.Post(ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(data))
		case 1: // arbitrary bytes as a job spec against a good handle
			resp, err = fuzzClient.Post(ts.URL+"/v1/graphs/"+handle+"/jobs", "application/json", bytes.NewReader(data))
		default: // arbitrary bytes as the handle path segment
			resp, err = fuzzClient.Post(ts.URL+"/v1/graphs/"+url.PathEscape(string(data))+"/jobs",
				"application/json", bytes.NewReader([]byte("{}")))
		}
		if err != nil {
			t.Fatalf("transport error (daemon died or hung past the client deadline?): %v", err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("reading response: %v", err)
		}
		if resp.StatusCode >= 500 {
			t.Fatalf("kind %d: HTTP %d for %q", kind%3, resp.StatusCode, truncate(data))
		}
	})
}

func truncate(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}
