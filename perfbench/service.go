package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"iterskew"
	"iterskew/internal/delay"
	"iterskew/internal/netio"
	"iterskew/internal/oracle"
	"iterskew/internal/serve"
)

// The service workload: an in-process daemon with iterskewd's defaults and
// the fleet uploaded during set-up; two closed-loop clients share one
// cursor over the op list, six jobs per design.

// jobSpecs lists the six jobs sent for a design of the given period: core
// early, core late streamed, core late at period x1.05, iccss late, fpm, and
// a 3-corner core early job (typical, early-derated, and relaxed-period
// corners).
func jobSpecs(period float64) []serve.JobSpec {
	fast, relaxed := 0.86, 0.9
	return []serve.JobSpec{
		{Scheduler: "core", Mode: "early"},
		{Scheduler: "core", Mode: "late", Stream: true},
		{Scheduler: "core", Mode: "late", PeriodPS: period * 1.05},
		{Scheduler: "iccss", Mode: "late"},
		{Scheduler: "fpm", Mode: "early"},
		{Scheduler: "core", Mode: "early", Corners: []serve.CornerSpec{
			{Name: "typ", PeriodPS: period},
			{Name: "fast", PeriodPS: period, DerateEarly: &fast},
			{Name: "relaxed", PeriodPS: period * 1.08, DerateEarly: &relaxed},
		}},
	}
}

// jobOp is one entry of the service op list.
type jobOp struct {
	design int
	spec   serve.JobSpec
	path   string
	body   []byte
}

// uploadFleet uploads every design, checks each acknowledgement against the
// generated design, and returns the op list over the handles.
func uploadFleet(c *client, fl []design) ([]jobOp, error) {
	var ops []jobOp
	for k := range fl {
		up, err := c.upload(fmt.Sprintf("u%d", k), fl[k].text)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fl[k].name, err)
		}
		if err := sameShape(up, &fl[k]); err != nil {
			return nil, fmt.Errorf("%s: %w", fl[k].name, err)
		}
		for _, spec := range jobSpecs(fl[k].period) {
			body, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			ops = append(ops, jobOp{design: k, spec: spec, path: "/v1/graphs/" + up.Handle + "/jobs", body: body})
		}
	}
	return ops, nil
}

// job runs one op and decodes its result: the whole body, or the final line
// of a streamed reply.
func (c *client) job(op *jobOp, id string) (*serve.JobResponse, error) {
	code, b, err := c.post(op.path, id, op.body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(b))
	}
	line := bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(line, '\n'); op.spec.Stream && i >= 0 {
		line = line[i+1:]
	}
	var r serve.JobResponse
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, err
	}
	if r.Type != "result" {
		return nil, fmt.Errorf("reply type %q: %s", r.Type, line)
	}
	return &r, nil
}

// canonical is a job result with its wall-clock fields zeroed: the bytes
// every repeat of the op, traced or not, must reproduce.
func canonical(r *serve.JobResponse) []byte {
	c := *r
	c.ElapsedMS = 0
	c.Phases = nil
	for _, ph := range r.Phases {
		ph.ElapsedMS = 0
		c.Phases = append(c.Phases, ph)
	}
	b, err := json.Marshal(&c)
	if err != nil {
		panic(err) // JobResponse holds only marshalable fields
	}
	return b
}

// jobRef is the checked instance of one job op.
type jobRef struct {
	canon []byte
	resp  *serve.JobResponse
}

// settle records r as op i's reference on first use, and otherwise checks
// that it reproduces the reference.
func settle(refs []jobRef, i int, r *serve.JobResponse) ([]byte, error) {
	c := canonical(r)
	if refs[i].canon == nil {
		refs[i] = jobRef{canon: c, resp: r}
		return c, nil
	}
	if !bytes.Equal(c, refs[i].canon) {
		return c, fmt.Errorf("op %d: result differs from its checked instance", i)
	}
	return c, nil
}

// bootService starts a daemon, uploads the fleet and runs the warm-up cycle
// with n clients, filling refs on first use.
func bootService(fl []design, n int, cfg serve.Config, wrap func(http.Handler) http.Handler, refs []jobRef) (*daemon, []jobOp, error) {
	d, err := startDaemon(cfg, wrap)
	if err != nil {
		return nil, nil, err
	}
	c := newClient(d.base)
	defer c.close()
	ops, err := uploadFleet(c, fl)
	if err == nil {
		err = firstErr(runJobs(d, ops, refs, nil, n, shared(len(ops), time.Time{}), "w"))
	}
	if err != nil {
		_ = d.stop()
		return nil, nil, err
	}
	return d, ops, nil
}

// runJobs runs n closed-loop clients over the op list, taking op indices
// from next, and checks every result against refs. With a tracer, each op
// is a root span the daemon's spans attach to.
func runJobs(d *daemon, ops []jobOp, refs []jobRef, t *tracer, n int, next func(int) (int, bool), prefix string) []opRecord {
	clients := make([]*client, n)
	for c := range clients {
		clients[c] = newClient(d.base)
		defer clients[c].close()
	}
	return drive(n, next, func(c, i int) opRecord {
		k := i % len(ops)
		id := fmt.Sprintf("%s%d", prefix, i)
		root := t.begin(id, "op", 0)
		t.register(root)
		t0 := time.Now()
		r, err := clients[c].job(&ops[k], id)
		rec := opRecord{idx: k, latMS: ms(time.Since(t0)), err: err}
		t.end(root)
		if err == nil {
			var canon []byte
			canon, rec.err = settle(refs, k, r)
			t.add("serve.response_kb", float64(len(canon))/1024)
		}
		return rec
	})
}

// firstErr returns the first failed op's error.
func firstErr(recs []opRecord) error {
	for _, r := range recs {
		if r.err != nil {
			return fmt.Errorf("op %d: %w", r.idx, r.err)
		}
	}
	return nil
}

func runService(cfg config, fl []design) (*outcome, error) {
	o := &outcome{}
	var d *daemon
	var ops []jobOp
	refs := make([]jobRef, len(jobSpecs(0))*len(fl))
	for r := 0; r < setupRepeats; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		d, ops, err = bootService(fl, cfg.clients, serve.Config{Recorder: iterskew.NewRecorder()}, nil, refs)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}
	defer d.stop()

	runs := make([]int64, len(ops))
	bad := make([]int64, len(ops))
	c0, t0 := readCPU(), time.Now()
	recs := runJobs(d, ops, refs, nil, cfg.clients, shared(0, t0.Add(cfg.seconds)), "m")
	o.elapsed = time.Since(t0)
	o.stealPct = stealPct(c0, readCPU())
	for _, r := range recs {
		runs[r.idx]++
		if r.err != nil {
			bad[r.idx]++
			o.problem("job op %d: %v", r.idx, r.err)
			continue
		}
		o.lat = append(o.lat, r.latMS)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.peakRSSMB = rss

	perDesign := len(jobSpecs(0))
	for k, err := range parallel(len(fl), func(k int) error {
		return checkJobs(fl[k].text, ops[k*perDesign:(k+1)*perDesign], refs[k*perDesign:(k+1)*perDesign])
	}) {
		if err != nil {
			o.problem("service %s: %v", fl[k].name, err)
			for i := k * perDesign; i < (k+1)*perDesign; i++ {
				bad[i] = runs[i]
			}
		}
	}
	for i := range runs {
		o.attempted += runs[i]
		o.failed += bad[i]
	}
	o.qor = serviceQoR(refs)
	return o, nil
}

// serviceQoR sums the residual TNS of one cycle's checked results.
func serviceQoR(refs []jobRef) map[string]float64 {
	var late, early float64
	for _, r := range refs {
		late -= r.resp.TNSLatePS / 1000
		early -= r.resp.TNSEarlyPS
	}
	return map[string]float64{"service_late_tns_ns": late, "service_early_tns_ps": early}
}

// checkJobs checks one design's job results against the oracle: its
// endpoint slacks under the returned targets, at each job's period and
// derates, must give the reported WNS/TNS — per corner for corner jobs.
func checkJobs(text []byte, ops []jobOp, refs []jobRef) error {
	d, err := netio.Read(bytes.NewReader(text))
	if err != nil {
		return err
	}
	graphs := map[[2]float64]*oracle.Graph{}
	at := func(period float64, de, dl *float64) (*oracle.Graph, error) {
		key := [2]float64{deref(de), deref(dl)}
		g, ok := graphs[key]
		if !ok {
			if g, err = oracle.ExtractAt(d, delay.Default(), 0, key[0], key[1]); err != nil {
				return nil, err
			}
			graphs[key] = g
		}
		if period == 0 {
			return g, nil
		}
		c := *g
		c.Period = period
		return &c, nil
	}
	for i, op := range ops {
		r := refs[i].resp
		extra, err := r.TargetCells()
		if err != nil {
			return err
		}
		if len(op.spec.Corners) == 0 {
			g, err := at(op.spec.PeriodPS, op.spec.DerateEarly, op.spec.DerateLate)
			if err != nil {
				return err
			}
			if err := matchQoR(g, extra, r.WNSEarlyPS, r.TNSEarlyPS, r.WNSLatePS, r.TNSLatePS); err != nil {
				return fmt.Errorf("job %d (%s %s): %w", i, op.spec.Scheduler, op.spec.Mode, err)
			}
			continue
		}
		if len(r.Corners) != len(op.spec.Corners) {
			return fmt.Errorf("job %d: %d corners in the reply, %d asked", i, len(r.Corners), len(op.spec.Corners))
		}
		for j, c := range op.spec.Corners {
			g, err := at(c.PeriodPS, c.DerateEarly, c.DerateLate)
			if err != nil {
				return err
			}
			rc := r.Corners[j]
			if err := matchQoR(g, extra, rc.WNSEarlyPS, rc.TNSEarlyPS, rc.WNSLatePS, rc.TNSLatePS); err != nil {
				return fmt.Errorf("job %d corner %s: %w", i, c.Name, err)
			}
		}
	}
	return nil
}

func deref(p *float64) float64 {
	if p == nil {
		return 0
	}
	return *p
}
