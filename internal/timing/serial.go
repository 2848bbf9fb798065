package timing

import (
	"fmt"

	"iterskew/internal/delay"
	"iterskew/internal/netlist"
)

// Arc is the exported name of the CSR arc record (see csr.go): the target
// pin alone.
type Arc = arcRef

// GraphSlabs is the flat, serialization-ready view of a compiled Graph:
// every structure the compile produces, exposed as plain slices so a codec
// (internal/graphio) can write them as length-prefixed slabs and reconstruct
// the graph in O(read). Slices returned by Slabs alias the graph's own
// arrays — callers must treat them as read-only. Slices passed to
// GraphFromSlabs are adopted by the new graph — callers must not reuse them.
type GraphSlabs struct {
	InData []bool
	Level  []int32
	Order  []netlist.PinID
	MaxLvl int32

	FwdOff, BwdOff []int32
	FwdArc, BwdArc []Arc

	Endpoints  []Endpoint
	EndpointOf []EndpointID
	FFIdx      []int32

	// BucketOff delimits the per-level buckets inside Order: level l spans
	// Order[BucketOff[l]:BucketOff[l+1]] (the canonical order is level-major,
	// so buckets are contiguous). len(BucketOff) == MaxLvl+2.
	BucketOff []int32

	SnapAtMin, SnapAtMax   []float64
	SnapReqMin, SnapReqMax []float64
	SnapBaseLat            []float64
	SnapDIn                []float64 // per-pin arc delays (see csr.go)
	SnapStats              Counters
}

// Slabs returns the graph's flat serialization view. The slices alias the
// graph's internal arrays (BucketOff is derived); do not modify them.
func (g *Graph) Slabs() GraphSlabs {
	off := make([]int32, g.maxLvl+2)
	for _, p := range g.order {
		off[g.level[p]+1]++
	}
	for l := int32(0); l <= g.maxLvl; l++ {
		off[l+1] += off[l]
	}
	return GraphSlabs{
		InData:      g.inData,
		Level:       g.level,
		Order:       g.order,
		MaxLvl:      g.maxLvl,
		FwdOff:      g.fwdOff,
		BwdOff:      g.bwdOff,
		FwdArc:      g.fwdArc,
		BwdArc:      g.bwdArc,
		Endpoints:   g.endpoints,
		EndpointOf:  g.endpointOf,
		FFIdx:       g.ffIdx,
		BucketOff:   off,
		SnapAtMin:   g.snapAtMin,
		SnapAtMax:   g.snapAtMax,
		SnapReqMin:  g.snapReqMin,
		SnapReqMax:  g.snapReqMax,
		SnapBaseLat: g.snapBaseLat,
		SnapDIn:     g.snapDIn,
		SnapStats:   g.snapStats,
	}
}

// Bytes returns the graph's slab footprint: the summed byte size of every
// array Slabs exposes, i.e. the codec payload size and a close proxy for the
// graph's resident memory. The engine's compiled-graph cache charges entries
// against its budget with this.
func (g *Graph) Bytes() int64 {
	var b int64
	b += int64(len(g.inData))                      // 1 byte each
	b += 4 * int64(len(g.level)+len(g.order))      // int32
	b += 4 * int64(len(g.fwdOff)+len(g.bwdOff))    // int32
	b += 4 * int64(len(g.fwdArc)+len(g.bwdArc))    // one int32 per arc
	b += 9 * int64(len(g.endpoints))               // pin + cell + isPort
	b += 4 * int64(len(g.endpointOf)+len(g.ffIdx)) // int32
	b += 4 * int64(g.maxLvl+2)                     // bucket offsets
	b += 8 * int64(len(g.snapAtMin)+len(g.snapAtMax)+len(g.snapReqMin)+len(g.snapReqMax))
	b += 8 * int64(len(g.snapBaseLat)+len(g.snapDIn))
	return b
}

// GraphFromSlabs reassembles a compiled Graph over d and m from a slab view,
// validating structural consistency (array lengths against the design, CSR
// offset monotonicity, arc and pin ranges, bucket alignment) so a corrupted
// or mismatched payload is rejected instead of producing a graph that faults
// later. The slab slices are adopted, not copied.
func GraphFromSlabs(d *netlist.Design, m delay.Model, s GraphSlabs) (*Graph, error) {
	np, nc, nf := len(d.Pins), len(d.Cells), len(d.FFs)
	switch {
	case len(s.InData) != np:
		return nil, fmt.Errorf("timing: slabs: inData len %d, want %d pins", len(s.InData), np)
	case len(s.Level) != np:
		return nil, fmt.Errorf("timing: slabs: level len %d, want %d pins", len(s.Level), np)
	case len(s.FwdOff) != np+1 || len(s.BwdOff) != np+1:
		return nil, fmt.Errorf("timing: slabs: CSR offsets len %d/%d, want %d", len(s.FwdOff), len(s.BwdOff), np+1)
	case len(s.EndpointOf) != nc || len(s.FFIdx) != nc:
		return nil, fmt.Errorf("timing: slabs: cell tables len %d/%d, want %d cells", len(s.EndpointOf), len(s.FFIdx), nc)
	case s.MaxLvl < 0 && len(s.Order) > 0, len(s.BucketOff) != int(s.MaxLvl)+2:
		return nil, fmt.Errorf("timing: slabs: bucket offsets len %d, want maxLvl+2 = %d", len(s.BucketOff), s.MaxLvl+2)
	case len(s.SnapAtMin) != np || len(s.SnapAtMax) != np || len(s.SnapReqMin) != np || len(s.SnapReqMax) != np:
		return nil, fmt.Errorf("timing: slabs: snapshot arrival/required arrays do not match %d pins", np)
	case len(s.SnapBaseLat) != nf:
		return nil, fmt.Errorf("timing: slabs: snapBaseLat len %d, want %d FFs", len(s.SnapBaseLat), nf)
	case len(s.SnapDIn) != np:
		return nil, fmt.Errorf("timing: slabs: snapDIn len %d, want %d pins", len(s.SnapDIn), np)
	}
	if err := checkCSR(s.FwdOff, s.FwdArc, np, "fwd"); err != nil {
		return nil, err
	}
	if err := checkCSR(s.BwdOff, s.BwdArc, np, "bwd"); err != nil {
		return nil, err
	}
	nd := 0
	for _, in := range s.InData {
		if in {
			nd++
		}
	}
	if len(s.Order) != nd {
		return nil, fmt.Errorf("timing: slabs: order len %d, want %d data pins", len(s.Order), nd)
	}
	if s.BucketOff[0] != 0 || int(s.BucketOff[len(s.BucketOff)-1]) != len(s.Order) {
		return nil, fmt.Errorf("timing: slabs: bucket offsets do not span order (first %d, last %d, order %d)",
			s.BucketOff[0], s.BucketOff[len(s.BucketOff)-1], len(s.Order))
	}
	for l := 0; l <= int(s.MaxLvl); l++ {
		lo, hi := s.BucketOff[l], s.BucketOff[l+1]
		if lo > hi {
			return nil, fmt.Errorf("timing: slabs: bucket offsets decrease at level %d", l)
		}
		for _, p := range s.Order[lo:hi] {
			if p < 0 || int(p) >= np || !s.InData[p] {
				return nil, fmt.Errorf("timing: slabs: order pin %d out of range or not a data pin", p)
			}
			if s.Level[p] != int32(l) {
				return nil, fmt.Errorf("timing: slabs: pin %d in bucket %d has level %d", p, l, s.Level[p])
			}
		}
	}
	for i := range s.Endpoints {
		e := &s.Endpoints[i]
		if e.Pin < 0 || int(e.Pin) >= np || e.Cell < 0 || int(e.Cell) >= nc {
			return nil, fmt.Errorf("timing: slabs: endpoint %d references pin %d / cell %d out of range", i, e.Pin, e.Cell)
		}
	}
	for c, e := range s.EndpointOf {
		if e != NoEndpoint && (e < 0 || int(e) >= len(s.Endpoints)) {
			return nil, fmt.Errorf("timing: slabs: cell %d endpoint %d out of range", c, e)
		}
	}
	for c, f := range s.FFIdx {
		if f != -1 && (f < 0 || int(f) >= nf) {
			return nil, fmt.Errorf("timing: slabs: cell %d FF index %d out of range", c, f)
		}
	}

	g := &Graph{
		D: d, M: m,
		inData: s.InData, level: s.Level, order: s.Order, maxLvl: s.MaxLvl,
		fwdOff: s.FwdOff, fwdArc: s.FwdArc, bwdOff: s.BwdOff, bwdArc: s.BwdArc,
		endpoints: s.Endpoints, endpointOf: s.EndpointOf, ffIdx: s.FFIdx,
		snapAtMin: s.SnapAtMin, snapAtMax: s.SnapAtMax,
		snapReqMin: s.SnapReqMin, snapReqMax: s.SnapReqMax,
		snapBaseLat: s.SnapBaseLat, snapDIn: s.SnapDIn,
		snapStats: s.SnapStats,
	}
	return g, nil
}

// checkCSR validates one CSR direction: monotone offsets covering the arc
// array and every arc target a valid pin.
func checkCSR(off []int32, arc []Arc, np int, dir string) error {
	if off[0] != 0 || int(off[np]) != len(arc) {
		return fmt.Errorf("timing: slabs: %s offsets do not span arcs (first %d, last %d, arcs %d)", dir, off[0], off[np], len(arc))
	}
	for i := 0; i < np; i++ {
		if off[i] > off[i+1] {
			return fmt.Errorf("timing: slabs: %s offsets decrease at pin %d", dir, i)
		}
	}
	// An unsigned compare folds the negative and too-large cases into one
	// branch; this loop runs over every arc on the decode hot path.
	upins := uint32(np)
	for i, a := range arc {
		if uint32(a.To) >= upins {
			return fmt.Errorf("timing: slabs: %s arc %d target pin %d out of range", dir, i, a.To)
		}
	}
	return nil
}
