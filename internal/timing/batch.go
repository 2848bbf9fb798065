package timing

import (
	"runtime"
	"sync"
	"sync/atomic"

	"iterskew/internal/netlist"
	"iterskew/internal/obs"
)

// Parallel batch extraction (§III-B at scale): violated endpoints are
// independent trace roots, so the batch extractors shard them across a worker
// pool. Each worker owns an epoch-versioned traceState, a Counters block and
// an edge buffer — no maps, no per-call allocation after warm-up — and the
// per-root result spans are merged back in root order, so the output is
// byte-identical to the serial per-root loop regardless of worker count or
// scheduling.

// span records which slice of a worker's edge buffer belongs to root idx.
type span struct {
	idx    int32
	lo, hi int32
}

// spanRef locates root i's edges after a batch run: worker w (1-based; 0 ⇒
// not traced), half-open buffer range [lo,hi).
type spanRef struct {
	w      int32
	lo, hi int32
}

type extractWorker struct {
	st    traceState
	cnt   Counters
	buf   []SeqEdge
	spans []span
}

// extractPool is the reusable per-state scratch for batch extraction. It is
// not safe for concurrent batch calls on one State (the State itself is not
// concurrency-safe either).
type extractPool struct {
	workers []extractWorker
	refs    []spanRef
}

func (pl *extractPool) prepare(workers, n int) []extractWorker {
	if len(pl.workers) < workers {
		ws := make([]extractWorker, workers)
		copy(ws, pl.workers)
		pl.workers = ws
	}
	ws := pl.workers[:workers]
	for i := range ws {
		ws[i].cnt = Counters{}
		ws[i].buf = ws[i].buf[:0]
		ws[i].spans = ws[i].spans[:0]
	}
	if cap(pl.refs) < n {
		pl.refs = make([]spanRef, n)
	}
	refs := pl.refs[:n]
	for i := range refs {
		refs[i] = spanRef{}
	}
	return ws
}

func (c *Counters) add(o Counters) {
	c.ForwardPinVisits += o.ForwardPinVisits
	c.BackwardPinVisits += o.BackwardPinVisits
	c.FullUpdates += o.FullUpdates
	c.IncrementalSeeds += o.IncrementalSeeds
	c.ExtractedEdges += o.ExtractedEdges
	c.ExtractArcVisits += o.ExtractArcVisits
}

// batchWorkers resolves a caller-supplied worker count, capped at the root
// count n: negative ⇒ GOMAXPROCS. A result of 0 or 1 runs serially.
func batchWorkers(workers, n int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// runBatch shards n independent trace roots across the pool. trace must
// append root i's edges to w.buf using only w-local mutable state; roots are
// claimed from an atomic cursor so workers stay busy on skewed cone sizes.
// Edges are merged into dst in root order and worker counters fold into
// t.Stats, making the result and the stats identical to the serial loop.
func (t *State) runBatch(n, workers int, dst []SeqEdge, trace func(w *extractWorker, i int)) []SeqEdge {
	ws := t.pool.prepare(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := range ws {
		wg.Add(1)
		go func(w *extractWorker, tid int32) {
			defer wg.Done()
			wsp := t.rec.WorkerSpan(obs.SpanExtractWorker, tid).WithReq(t.req)
			roots := int64(0)
			for {
				if t.stopRequested() {
					// Cooperative stop: abandon unclaimed roots. The merged
					// result keeps whatever was traced; callers stopping here
					// discard the round anyway.
					wsp.EndArg("roots", roots)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					wsp.EndArg("roots", roots)
					return
				}
				roots++
				lo := int32(len(w.buf))
				trace(w, i)
				w.spans = append(w.spans, span{idx: int32(i), lo: lo, hi: int32(len(w.buf))})
			}
		}(&ws[wi], int32(wi)+1)
	}
	wg.Wait()

	refs := t.pool.refs[:n]
	for wi := range ws {
		for _, s := range ws[wi].spans {
			refs[s.idx] = spanRef{w: int32(wi) + 1, lo: s.lo, hi: s.hi}
		}
		t.Stats.add(ws[wi].cnt)
	}
	for i := 0; i < n; i++ {
		if r := refs[i]; r.w != 0 {
			dst = append(dst, ws[r.w-1].buf[r.lo:r.hi]...)
		}
	}
	return dst
}

// ExtractEssentialBatch runs ExtractEssentialAt for every endpoint in order,
// fanning the traces out to `workers` goroutines (0 ⇒ serial, negative ⇒
// GOMAXPROCS). The appended edges and the updated Stats are identical to
// calling ExtractEssentialAt serially in endpoint order.
func (t *State) ExtractEssentialBatch(endpoints []EndpointID, m Mode, margin float64, workers int, dst []SeqEdge) []SeqEdge {
	workers = batchWorkers(workers, len(endpoints))
	sp, len0 := t.rec.StartSpan(obs.SpanExtractBatch).WithReq(t.req), len(dst)
	if workers <= 1 || len(endpoints) < 2 {
		wsp := t.rec.WorkerSpan(obs.SpanExtractWorker, 0).WithReq(t.req)
		for _, e := range endpoints {
			dst = t.extractEssential(&t.trace, &t.Stats, e, m, margin, dst)
		}
		wsp.EndArg("roots", int64(len(endpoints)))
		t.finishBatch(sp, len(endpoints), len(dst)-len0)
		return dst
	}
	dst = t.runBatch(len(endpoints), workers, dst, func(w *extractWorker, i int) {
		w.buf = t.extractEssential(&w.st, &w.cnt, endpoints[i], m, margin, w.buf)
	})
	t.finishBatch(sp, len(endpoints), len(dst)-len0)
	return dst
}

// ExtractAllFromBatch runs ExtractAllFrom for every launch vertex in order
// with the same worker-pool semantics as ExtractEssentialBatch.
func (t *State) ExtractAllFromBatch(launches []netlist.CellID, m Mode, workers int, dst []SeqEdge) []SeqEdge {
	workers = batchWorkers(workers, len(launches))
	sp, len0 := t.rec.StartSpan(obs.SpanExtractBatch).WithReq(t.req), len(dst)
	if workers <= 1 || len(launches) < 2 {
		wsp := t.rec.WorkerSpan(obs.SpanExtractWorker, 0).WithReq(t.req)
		for _, c := range launches {
			dst = t.extractAllFrom(&t.trace, &t.Stats, c, m, dst)
		}
		wsp.EndArg("roots", int64(len(launches)))
		t.finishBatch(sp, len(launches), len(dst)-len0)
		return dst
	}
	dst = t.runBatch(len(launches), workers, dst, func(w *extractWorker, i int) {
		w.buf = t.extractAllFrom(&w.st, &w.cnt, launches[i], m, w.buf)
	})
	t.finishBatch(sp, len(launches), len(dst)-len0)
	return dst
}

// ExtractAllIntoBatch runs ExtractAllInto for every capture vertex in order
// with the same worker-pool semantics as ExtractEssentialBatch.
func (t *State) ExtractAllIntoBatch(captures []netlist.CellID, m Mode, workers int, dst []SeqEdge) []SeqEdge {
	workers = batchWorkers(workers, len(captures))
	sp, len0 := t.rec.StartSpan(obs.SpanExtractBatch).WithReq(t.req), len(dst)
	if workers <= 1 || len(captures) < 2 {
		wsp := t.rec.WorkerSpan(obs.SpanExtractWorker, 0).WithReq(t.req)
		for _, c := range captures {
			dst = t.extractAllInto(&t.trace, &t.Stats, c, m, dst)
		}
		wsp.EndArg("roots", int64(len(captures)))
		t.finishBatch(sp, len(captures), len(dst)-len0)
		return dst
	}
	dst = t.runBatch(len(captures), workers, dst, func(w *extractWorker, i int) {
		w.buf = t.extractAllInto(&w.st, &w.cnt, captures[i], m, w.buf)
	})
	t.finishBatch(sp, len(captures), len(dst)-len0)
	return dst
}

// finishBatch folds one batch's counters and closes its span.
func (t *State) finishBatch(sp obs.Span, roots, edges int) {
	if t.rec != nil {
		t.rec.Add(obs.CtrExtractBatches, 1)
		t.rec.Add(obs.CtrExtractRoots, int64(roots))
		t.rec.Add(obs.CtrExtractEdges, int64(edges))
	}
	sp.EndArg2("roots", int64(roots), "edges", int64(edges))
}
