package main

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	"iterskew"
	"iterskew/internal/netio"
	"iterskew/internal/obs"
	"iterskew/internal/sched"
	"iterskew/internal/serve"
)

// The ingest workload: a daemon whose graph-cache budget is below the
// fleet's total graph bytes. Each client owns every n-th design and uploads
// each of its netlists twice in a row: the first upload misses (parse,
// validate, hash, compile, evict), the second hits (parse, validate, hash).

// ingestOp is one upload of a client's op list.
type ingestOp struct {
	design int
	first  bool // the miss; the second upload of the same design hits
}

// ingestLists splits the fleet among n clients: client c owns designs c,
// c+n, c+2n, ... and uploads each twice.
func ingestLists(fl []design, n int) [][]ingestOp {
	lists := make([][]ingestOp, n)
	for k := range fl {
		c := k % n
		lists[c] = append(lists[c], ingestOp{k, true}, ingestOp{k, false})
	}
	return lists
}

// ingestBudget sizes the daemon's graph cache just below the smallest
// client's total graph bytes. Then a first upload always misses: its graph
// was evicted while its owner uploaded its other designs, whatever the other
// client did meanwhile. A second upload hits as long as the graph survived
// the other client's uploads since the first; with strict turns that is one
// upload, which the budget must hold next to it.
func ingestBudget(fl []design, n int) (int64, error) {
	ds, err := parseFleet(fl)
	if err != nil {
		return 0, err
	}
	size := make([]int64, len(ds))
	total := make([]int64, n)
	for k, d := range ds {
		g, err := iterskew.Compile(d)
		if err != nil {
			return 0, err
		}
		size[k] = g.Bytes()
		total[k%n] += size[k]
	}
	pair := slices.Max(size) // a lone client's hit needs only its own graph
	for a := range size {
		for b := range size {
			if a%n != b%n {
				pair = max(pair, size[a]+size[b])
			}
		}
	}
	budget := slices.Min(total) - 1
	if pair > budget {
		return 0, fmt.Errorf("ingest: a cache budget below %d B cannot hold %d B of graphs", budget+1, pair)
	}
	return budget, nil
}

// sameShape checks an upload acknowledgement against the generated design.
func sameShape(up *serve.UploadResponse, d *design) error {
	if up.Cells != d.cells || up.FFs != d.ffs || up.Nets != d.nets || up.PeriodPS != d.period {
		return fmt.Errorf("upload reports %d cells, %d FFs, %d nets, period %v ps; generated %d, %d, %d, %v",
			up.Cells, up.FFs, up.Nets, up.PeriodPS, d.cells, d.ffs, d.nets, d.period)
	}
	return nil
}

// ingestRefs holds the checked acknowledgement of every design, with Cached
// cleared.
type ingestRefs []*serve.UploadResponse

// settle checks one acknowledgement: a first upload must miss, a second
// must hit when exact is set, and everything else must equal the checked
// instance, which the first acknowledgement of a design becomes after a
// check against the generated design.
func (refs ingestRefs) settle(fl []design, op ingestOp, up *serve.UploadResponse, exact bool) error {
	name := fl[op.design].name
	if op.first && up.Cached || exact && !op.first && !up.Cached {
		return fmt.Errorf("%s upload first=%v: cached=%v", name, op.first, up.Cached)
	}
	got := *up
	got.Cached = false
	if refs[op.design] == nil {
		if err := sameShape(&got, &fl[op.design]); err != nil {
			return err
		}
		refs[op.design] = &got
	} else if *refs[op.design] != got {
		return fmt.Errorf("%s: %+v differs from its checked instance %+v", name, got, *refs[op.design])
	}
	return nil
}

func runIngest(cfg config, fl []design) (*outcome, error) {
	budget, err := ingestBudget(fl, cfg.clients)
	if err != nil {
		return nil, err
	}
	lists := ingestLists(fl, cfg.clients)
	refs := make(ingestRefs, len(fl))
	o := &outcome{}
	var d *daemon
	for r := 0; r < setupRepeats; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		d, err = startDaemon(serve.Config{Recorder: iterskew.NewRecorder(), CacheBytes: budget}, nil)
		if err != nil {
			return nil, err
		}
		for _, rec := range uploads(d, fl, lists, refs, perClient(lists, 1), time.Time{}) {
			if rec.err != nil {
				_ = d.stop()
				return nil, fmt.Errorf("ingest warm-up: %w", rec.err)
			}
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}
	defer d.stop()

	c0, t0 := readCPU(), time.Now()
	recs := uploads(d, fl, lists, refs, perClient(lists, 0), t0.Add(cfg.seconds))
	o.elapsed = time.Since(t0)
	o.stealPct = stealPct(c0, readCPU())
	o.counts = map[string]float64{}
	for _, r := range recs {
		o.attempted++
		if r.err != nil {
			o.failed++
			o.problem("upload: %v", r.err)
			continue
		}
		if r.hit {
			o.counts["ingest_hits"]++
		} else {
			o.counts["ingest_misses"]++
		}
		o.lat = append(o.lat, r.latMS)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	o.peakRSSMB = rss
	return o, nil
}

// perClient gives each client the next index of its own list, for the given
// number of cycles (0: unbounded).
func perClient(lists [][]ingestOp, cycles int) func(int) (int, bool) {
	next := make([]int, len(lists))
	return func(c int) (int, bool) {
		i := next[c]
		next[c]++
		return i, cycles == 0 || i < cycles*len(lists[c])
	}
}

// uploads runs one closed-loop uploader per list until next stops it or the
// deadline passes; every reply is checked against refs. A record's idx is
// the design uploaded.
func uploads(d *daemon, fl []design, lists [][]ingestOp, refs ingestRefs, next func(int) (int, bool), deadline time.Time) []opRecord {
	clients := make([]*client, len(lists))
	for c := range clients {
		clients[c] = newClient(d.base)
		defer clients[c].close()
	}
	return drive(len(lists), func(c int) (int, bool) {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return 0, false
		}
		return next(c)
	}, func(c, i int) opRecord {
		op := lists[c][i%len(lists[c])]
		t0 := time.Now()
		up, err := clients[c].upload(fmt.Sprintf("i%d.%d", c, i), fl[op.design].text)
		rec := opRecord{idx: op.design, latMS: ms(time.Since(t0)), err: err}
		if err == nil {
			rec.hit = up.Cached
			rec.err = refs.settle(fl, op, up, false)
		}
		return rec
	})
}

// ingestPass boots a fresh daemon, runs one untraced warm-up cycle and then
// the given cycles with the clients taking strict turns, so that the cache
// sees the same upload order, and the same hits, misses and evictions, on
// every pass. With a tracer, each upload's handler is a span, and the layers
// it calls are re-executed on the same bytes afterwards and recorded as its
// children: netio.Read, sched.ValidateInput, graphio.HashOf and, on a miss,
// timing.Compile.
func ingestPass(fl []design, n int, budget int64, refs ingestRefs, t *tracer, cycles, pass int) (*passOut, error) {
	rec := iterskew.NewRecorder()
	pr := &probe{}
	d, err := startDaemon(serve.Config{Recorder: rec, CacheBytes: budget}, pr.handler)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	lists := ingestLists(fl, n)
	clients := make([]*client, n)
	for c := range clients {
		clients[c] = newClient(d.base)
		defer clients[c].close()
	}
	p := &passOut{cycles: cycles}
	forced := 0 // GCs the pass runs itself, so that every upload starts on a collected heap
	// step runs client c's i-th upload; the warm-up's are neither counted
	// nor traced.
	step := func(c, i int, measured bool) error {
		op := lists[c][i%len(lists[c])]
		id := fmt.Sprintf("i%d.%d.%d", pass, c, i)
		var tt *tracer
		if measured {
			tt = t
		}
		runtime.GC()
		forced++
		root := tt.begin(id, "op", 0)
		tt.register(root)
		t0 := time.Now()
		up, err := clients[c].upload(id, fl[op.design].text)
		lat := ms(time.Since(t0))
		tt.end(root)
		if err != nil {
			return err
		}
		if err := refs.settle(fl, op, up, true); err != nil {
			return err
		}
		if measured {
			p.ops++
			p.wallMS += lat
			if tt != nil {
				runtime.GC()
				forced++
				return reexecute(tt, id, fl[op.design].text, !up.Cached)
			}
		}
		return nil
	}
	turns := func(cycles int, measured bool) error {
		for i := 0; i < cycles*len(lists[0]); i++ {
			for c := range lists {
				if err := step(c, i, measured); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := turns(1, false); err != nil {
		return nil, err
	}
	pr.cur.Store(t)
	c0 := cacheCounts(rec)
	m0, f0 := readMem(), forced
	err = turns(cycles, true)
	p.mem(m0, readMem(), forced-f0)
	c1 := cacheCounts(rec)
	pr.cur.Store(nil)
	if err != nil {
		return nil, err
	}
	for i, name := range []string{"engine.cache_hits", "engine.cache_misses", "engine.cache_evicts"} {
		t.add(name, float64(c1[i]-c0[i]))
	}
	return p, nil
}

func cacheCounts(rec *obs.Recorder) [3]int64 {
	return [3]int64{
		rec.Counter(obs.CtrGraphCacheHits),
		rec.Counter(obs.CtrGraphCacheMisses),
		rec.Counter(obs.CtrGraphCacheEvicts),
	}
}

// reexecute times the layers an upload went through, on the same bytes, as
// children of the op's handler span.
func reexecute(t *tracer, op string, text []byte, miss bool) error {
	parent := t.lookup(op, "serve.handler")
	s := t.begin(op, "netio.read", parent)
	d, err := netio.Read(bytes.NewReader(text))
	t.end(s)
	if err != nil {
		return err
	}
	t.add("netio.read_bytes", float64(len(text)))
	s = t.begin(op, "sched.validate", parent)
	err = sched.ValidateInput(d)
	t.end(s)
	if err != nil {
		return err
	}
	s = t.begin(op, "graphio.hash", parent)
	_, err = iterskew.HashGraphInputs(d)
	t.end(s)
	if err != nil || !miss {
		return err
	}
	s = t.begin(op, "timing.compile", parent)
	_, err = iterskew.Compile(d)
	t.end(s)
	return err
}
