package serve_test

// Concurrency and robustness battery for the daemon, all designed to run
// clean under -race: concurrent clients vs serial byte-identity, saturation
// backpressure (429 + Retry-After), client-disconnect cancellation with the
// session state recycled (not discarded), and graceful drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"iterskew/internal/netlist"
	"iterskew/internal/sched"
	"iterskew/internal/serve"
)

// gateSched is a controllable scheduler: it parks inside Schedule until the
// test releases it (or the job's context cancels), making slot-occupancy
// windows deterministic — the only way to test saturation and drain on a
// single-CPU host where real jobs finish without ever yielding.
type gateSched struct {
	started chan struct{} // one send per Schedule entry
	release chan struct{} // close (or send) to let Schedule return
}

func newGateSched() *gateSched {
	return &gateSched{started: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gateSched) Schedule(tm sched.TimingView, opts sched.Options) (*sched.Result, error) {
	g.started <- struct{}{}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-g.release:
		return &sched.Result{StopReason: sched.StopConverged, Target: map[netlist.CellID]float64{}}, nil
	case <-ctx.Done():
		reason := sched.StopCancelled
		if ctx.Err() == context.DeadlineExceeded {
			reason = sched.StopDeadline
		}
		return &sched.Result{StopReason: reason, Target: map[netlist.CellID]float64{}}, nil
	}
}

func getStats(t testing.TB, url string) serve.StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestConcurrentClientsIdentical: N clients hammering the same handle with
// the same specs must each get the serial reference answer, bit for bit.
func TestConcurrentClientsIdentical(t *testing.T) {
	d := genDesign(t, 16)
	_, ts := newServer(t, serve.Config{MaxInFlight: 4})
	up := upload(t, ts, netText(t, d))

	specs := []serve.JobSpec{
		{},
		{Scheduler: "iccss"},
		{Scheduler: "fpm"},
		{PeriodPS: d.Period * 1.15},
	}
	// Serial references, one request each, before the storm.
	want := make([]serve.JobResponse, len(specs))
	for i, spec := range specs {
		code, data, _ := postJob(t, ts, up.Handle, spec)
		if code != http.StatusOK {
			t.Fatalf("reference %d: HTTP %d: %s", i, code, data)
		}
		want[i] = decodeJob(t, data)
	}

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, spec := range specs {
				body, _ := json.Marshal(spec)
				// Absorb 429s: admission refusals are expected under the
				// storm; the answer that eventually comes must be identical.
				var data []byte
				for {
					resp, err := http.Post(ts.URL+"/v1/graphs/"+up.Handle+"/jobs", "application/json", bytes.NewReader(body))
					if err != nil {
						errs <- err
						return
					}
					data, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs <- err
						return
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						time.Sleep(time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						errs <- &unexpectedStatus{resp.StatusCode, data}
						return
					}
					break
				}
				var got serve.JobResponse
				if err := json.Unmarshal(data, &got); err != nil {
					errs <- err
					return
				}
				got.ElapsedMS = 0
				ref := want[i]
				ref.ElapsedMS = 0
				gj, _ := json.Marshal(got)
				wj, _ := json.Marshal(ref)
				if !bytes.Equal(gj, wj) {
					t.Errorf("client %d spec %d diverged:\n%s\n%s", c, i, gj, wj)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type unexpectedStatus struct {
	code int
	body []byte
}

func (e *unexpectedStatus) Error() string {
	return "unexpected HTTP " + http.StatusText(e.code) + ": " + string(e.body)
}

// TestSaturation429 proves admission control deterministically: with one
// slot held open by the gate scheduler, the next job and the next upload are
// refused with 429 and a Retry-After header, and the daemon recovers the
// moment the slot frees.
func TestSaturation429(t *testing.T) {
	d := genDesign(t, 3)
	gate := newGateSched()
	_, ts := newServer(t, serve.Config{
		MaxInFlight: 1,
		Schedulers:  map[string]sched.Scheduler{"gate": gate},
	})
	up := upload(t, ts, netText(t, d))

	done := make(chan serve.JobResponse, 1)
	go func() {
		code, data, _ := postJob(t, ts, up.Handle, serve.JobSpec{Scheduler: "gate"})
		if code != http.StatusOK {
			t.Errorf("gated job: HTTP %d: %s", code, data)
		}
		done <- decodeJob(t, data)
	}()
	<-gate.started // the slot is now held

	code, data, hdr := postJob(t, ts, up.Handle, serve.JobSpec{})
	if code != http.StatusTooManyRequests {
		t.Fatalf("job while saturated: HTTP %d (%s), want 429", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After header")
	}
	var e serve.ErrorResponse
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Fatalf("429 body: %v %s", err, data)
	}

	// Uploads go through the same gate.
	resp, err := http.Post(ts.URL+"/v1/graphs", "text/plain", bytes.NewReader(netText(t, genDesign(t, 4))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("upload while saturated: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("upload 429 without Retry-After")
	}

	// healthz and stats must keep answering while saturated (they are not
	// admitted work).
	if hr, err := http.Get(ts.URL + "/v1/healthz"); err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz while saturated: %v %v", err, hr.Status)
	} else {
		hr.Body.Close()
	}
	st := getStats(t, ts.URL)
	if st.InFlight != 1 || st.Rejected < 2 {
		t.Fatalf("stats while saturated: %+v, want in_flight 1 and >=2 rejections", st)
	}

	close(gate.release)
	jr := <-done
	if jr.StopReason != sched.StopConverged.String() {
		t.Fatalf("gated job stop_reason = %s", jr.StopReason)
	}
	if code, data, _ := postJob(t, ts, up.Handle, serve.JobSpec{}); code != http.StatusOK {
		t.Fatalf("job after slot freed: HTTP %d: %s", code, data)
	}
}

// TestClientDisconnectCancels: dropping the connection mid-job must cancel
// the scheduler through the request context, count a jobs_cancelled, and
// recycle (not discard) the session state.
func TestClientDisconnectCancels(t *testing.T) {
	d := genDesign(t, 3)
	gate := newGateSched()
	_, ts := newServer(t, serve.Config{
		MaxInFlight: 1,
		Schedulers:  map[string]sched.Scheduler{"gate": gate},
	})
	up := upload(t, ts, netText(t, d))

	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(serve.JobSpec{Scheduler: "gate"})
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/graphs/"+up.Handle+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		respc <- err
	}()
	<-gate.started // scheduler is parked inside the job
	cancel()       // client walks away
	if err := <-respc; err == nil {
		t.Fatalf("cancelled request returned without error")
	}

	// The daemon notices via r.Context(), the gate returns StopCancelled,
	// and the slot frees. Poll stats until the accounting lands.
	deadline := time.After(5 * time.Second)
	for {
		st := getStats(t, ts.URL)
		if st.Cancelled == 1 && st.InFlight == 0 {
			if st.StatesDiscarded != 0 {
				t.Fatalf("cancelled job discarded a state: %+v", st)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("cancellation never accounted: %+v", st)
		case <-time.After(5 * time.Millisecond):
		}
	}

	// The state went back to the pool: a follow-up job reuses it instead of
	// growing the pool.
	created := getStats(t, ts.URL).StatesCreated
	if code, data, _ := postJob(t, ts, up.Handle, serve.JobSpec{}); code != http.StatusOK {
		t.Fatalf("job after disconnect: HTTP %d: %s", code, data)
	}
	if after := getStats(t, ts.URL).StatesCreated; after != created {
		t.Fatalf("states_created grew %d -> %d; cancelled state was not recycled", created, after)
	}
}

// TestGracefulDrain: Drain stops admission (healthz 503, new jobs 503),
// lets the in-flight job finish, and returns only once it has.
func TestGracefulDrain(t *testing.T) {
	d := genDesign(t, 3)
	gate := newGateSched()
	s, ts := newServer(t, serve.Config{
		MaxInFlight: 2,
		Schedulers:  map[string]sched.Scheduler{"gate": gate},
	})
	up := upload(t, ts, netText(t, d))

	done := make(chan int, 1)
	go func() {
		code, _, _ := postJob(t, ts, up.Handle, serve.JobSpec{Scheduler: "gate"})
		done <- code
	}()
	<-gate.started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// Admission must flip off promptly (Drain sets the flag before waiting).
	deadline := time.After(5 * time.Second)
	for !s.Draining() {
		select {
		case <-deadline:
			t.Fatal("Draining() never became true")
		case <-time.After(time.Millisecond):
		}
	}
	if hr, err := http.Get(ts.URL + "/v1/healthz"); err != nil || hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %v %v, want 503", err, hr.Status)
	} else {
		hr.Body.Close()
	}
	if code, data, _ := postJob(t, ts, up.Handle, serve.JobSpec{}); code != http.StatusServiceUnavailable {
		t.Fatalf("job while draining: HTTP %d (%s), want 503", code, data)
	}

	// Drain must still be waiting on the in-flight job.
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) with a job still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(gate.release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("in-flight job during drain: HTTP %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
