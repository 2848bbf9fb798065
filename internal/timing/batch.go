package timing

import (
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
)

// Batch extraction (§III-B at scale): one call traces a round's roots in
// order under one extract.batch span. The appended edges and the updated
// Stats are exactly those of the per-root calls in the same order. Each
// batch method's workers argument is ignored: extraction is serial, and the
// argument stays only so that existing sched.TimingView implementations
// keep their signatures.

// ExtractEssentialBatch runs ExtractEssentialAt for every endpoint in order.
func (t *State) ExtractEssentialBatch(endpoints []EndpointID, m Mode, margin float64, _ int, dst []SeqEdge) []SeqEdge {
	return extractBatch(t, endpoints, dst, func(e EndpointID, dst []SeqEdge) []SeqEdge {
		return t.ExtractEssentialAt(e, m, margin, dst)
	})
}

// ExtractAllFromBatch runs ExtractAllFrom for every launch vertex in order.
func (t *State) ExtractAllFromBatch(launches []netlist.CellID, m Mode, _ int, dst []SeqEdge) []SeqEdge {
	return extractBatch(t, launches, dst, func(c netlist.CellID, dst []SeqEdge) []SeqEdge {
		return t.ExtractAllFrom(c, m, dst)
	})
}

// ExtractAllIntoBatch runs ExtractAllInto for every capture vertex in order.
func (t *State) ExtractAllIntoBatch(captures []netlist.CellID, m Mode, _ int, dst []SeqEdge) []SeqEdge {
	return extractBatch(t, captures, dst, func(c netlist.CellID, dst []SeqEdge) []SeqEdge {
		return t.ExtractAllInto(c, m, dst)
	})
}

// extractBatch appends trace's edges for every root in order, probing the
// SetCheck hook before each root: once it reports true the remaining roots
// are abandoned and the edges traced so far are returned. It folds the
// batch's counters into the recorder and closes its span.
func extractBatch[R any](t *State, roots []R, dst []SeqEdge, trace func(R, []SeqEdge) []SeqEdge) []SeqEdge {
	sp, len0 := t.rec.StartSpan(obs.SpanExtractBatch).WithReq(t.req), len(dst)
	for _, r := range roots {
		if t.stopRequested() {
			break
		}
		dst = trace(r, dst)
	}
	edges := int64(len(dst) - len0)
	if t.rec != nil {
		t.rec.Add(obs.CtrExtractBatches, 1)
		t.rec.Add(obs.CtrExtractRoots, int64(len(roots)))
		t.rec.Add(obs.CtrExtractEdges, edges)
	}
	sp.EndArg2("roots", int64(len(roots)), "edges", edges)
	return dst
}
