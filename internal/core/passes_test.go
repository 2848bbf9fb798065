package core

import (
	"math"
	"testing"

	"iterskew/internal/netlist"
	"iterskew/internal/seqgraph"
	"iterskew/internal/timing"
)

// TestFigure6TwoPass reconstructs the worked example of the paper's Fig 6:
//
//	a →(−5) e →(−3) c      c's headroom (virtual endpoint weight) = 6
//	a →(−3) b   e →(−1) f  f's headroom = 2
//	b →(−2) c              (cross-arborescence edge e_{b,c})
//
// Expected: w_e^avg = max{(−5−3+6)/2, (−5−1+2)/2} = −1 ⇒ l_e^max = 4,
// and in pass two vertex b needs only +3 to resolve e_{a,b}.
func TestFigure6TwoPass(t *testing.T) {
	g := seqgraph.New()
	noPort := func(netlist.CellID) bool { return false }
	edge := func(u, v netlist.CellID) int32 {
		id, _ := g.AddSeqEdge(timing.SeqEdge{Launch: u, Capture: v, Mode: timing.Late}, noPort)
		return id
	}
	// Cells: a=1, e=2, c=3, b=4, f=5.
	eAE := edge(1, 2)
	eEC := edge(2, 3)
	eAB := edge(1, 4)
	eEF := edge(2, 5)
	eBC := edge(4, 3)

	w := make([]float64, len(g.Edges))
	w[eAE], w[eEC], w[eAB], w[eEF], w[eBC] = -5, -3, -3, -1, -2

	forest, cyc := g.BuildForest(w, nil, math.Inf(1))
	if cyc != nil {
		t.Fatal("unexpected cycle")
	}
	a, e, c, b, f := g.Lookup(1), g.Lookup(2), g.Lookup(3), g.Lookup(4), g.Lookup(5)

	if forest.ParentV[e] != a || forest.ParentV[b] != a || forest.ParentV[c] != e || forest.ParentV[f] != e {
		t.Fatalf("forest shape unexpected: parents e=%d b=%d c=%d f=%d",
			forest.ParentV[e], forest.ParentV[b], forest.ParentV[c], forest.ParentV[f])
	}

	headrooms := map[seqgraph.VertexID]float64{c: 6, f: 2, e: 100, b: 100, a: 100}
	head := func(v seqgraph.VertexID) float64 { return headrooms[v] }

	lmax := PassOne(g, forest, w, func(int32) bool { return true }, head)
	check := func(name string, v seqgraph.VertexID, want float64) {
		t.Helper()
		if math.Abs(lmax[v]-want) > 1e-9 {
			t.Errorf("l^max(%s) = %v, want %v", name, lmax[v], want)
		}
	}
	check("a", a, 0)
	check("e", e, 4)
	check("b", b, 3.5)
	check("c", c, 6)
	check("f", f, 2)

	l, _ := PassTwo(g, w, func(int32) bool { return true }, lmax)
	checkL := func(name string, v seqgraph.VertexID, want float64) {
		t.Helper()
		if math.Abs(l[v]-want) > 1e-9 {
			t.Errorf("l(%s) = %v, want %v", name, l[v], want)
		}
	}
	checkL("a", a, 0)
	checkL("e", e, 4)
	checkL("b", b, 3) // the paper: "vertex b requires only a latency of +3"
	checkL("c", c, 6)
	checkL("f", f, 2)

	// The equalization property: tree edges on the pushed chain end at the
	// mean weight. Edge a→e: −5 + 4 − 0 = −1 = w_e^avg.
	if got := w[eAE] + l[e] - l[a]; math.Abs(got-(-1)) > 1e-9 {
		t.Errorf("slack(a→e) after assignment = %v, want -1", got)
	}
	// Edge a→b is fully resolved.
	if got := w[eAB] + l[b] - l[a]; math.Abs(got) > 1e-9 {
		t.Errorf("slack(a→b) after assignment = %v, want 0", got)
	}
}

// TestPassOneRootsPinnedAtZero: roots and unattached vertices are the
// latency baseline.
func TestPassOneRootsPinnedAtZero(t *testing.T) {
	g := seqgraph.New()
	noPort := func(netlist.CellID) bool { return false }
	g.AddSeqEdge(timing.SeqEdge{Launch: 1, Capture: 2, Mode: timing.Late}, noPort)
	w := []float64{-7}
	forest, _ := g.BuildForest(w, nil, math.Inf(1))
	head := func(seqgraph.VertexID) float64 { return math.Inf(1) }
	lmax := PassOne(g, forest, w, func(int32) bool { return true }, head)
	if lmax[g.Lookup(1)] != 0 {
		t.Errorf("root lmax = %v", lmax[g.Lookup(1)])
	}
	if !math.IsInf(lmax[g.Lookup(2)], 1) {
		t.Errorf("sink with infinite headroom: lmax = %v", lmax[g.Lookup(2)])
	}
	l, _ := PassTwo(g, w, func(int32) bool { return true }, lmax)
	if l[g.Lookup(2)] != 7 {
		t.Errorf("l(head) = %v, want 7", l[g.Lookup(2)])
	}
}

// TestPassTwoHonorsFrozen: frozen vertices never receive latency.
func TestPassTwoHonorsFrozen(t *testing.T) {
	g := seqgraph.New()
	noPort := func(netlist.CellID) bool { return false }
	g.AddSeqEdge(timing.SeqEdge{Launch: 1, Capture: 2, Mode: timing.Late}, noPort)
	v2 := g.Lookup(2)
	g.Freeze(v2)
	w := []float64{-7}
	forest, _ := g.BuildForest(w, nil, math.Inf(1))
	head := func(seqgraph.VertexID) float64 { return math.Inf(1) }
	lmax := PassOne(g, forest, w, func(int32) bool { return true }, head)
	l, _ := PassTwo(g, w, func(int32) bool { return true }, lmax)
	if l[v2] != 0 {
		t.Errorf("frozen vertex got latency %v", l[v2])
	}
}

// TestPassesNonNegative is a property over random graphs: both passes only
// produce finite non-negative assignments bounded by the headroom.
func TestPassesNonNegative(t *testing.T) {
	noPort := func(netlist.CellID) bool { return false }
	for seed := 0; seed < 50; seed++ {
		g := seqgraph.New()
		rng := newRand(seed)
		n := 3 + rng.Intn(8)
		for i := 0; i < 15; i++ {
			u := netlist.CellID(rng.Intn(n))
			v := netlist.CellID(rng.Intn(n))
			if u != v {
				g.AddSeqEdge(timing.SeqEdge{Launch: u, Capture: v, Mode: timing.Late}, noPort)
			}
		}
		if len(g.Edges) == 0 {
			continue
		}
		w := make([]float64, len(g.Edges))
		for i := range w {
			w[i] = -float64(rng.Intn(30)) - 1
		}
		forest, cyc := g.BuildForest(w, nil, math.Inf(1))
		if cyc != nil {
			continue
		}
		hr := make([]float64, g.NumVertices())
		for i := range hr {
			hr[i] = float64(rng.Intn(40))
		}
		head := func(v seqgraph.VertexID) float64 { return hr[v] }
		all := func(int32) bool { return true }
		lmax := PassOne(g, forest, w, all, head)
		l, _ := PassTwo(g, w, all, lmax)
		for v := 0; v < g.NumVertices(); v++ {
			if l[v] < 0 || math.IsNaN(l[v]) || math.IsInf(l[v], 0) {
				t.Fatalf("seed %d: bad latency %v", seed, l[v])
			}
			if l[v] > hr[v]+1e-9 {
				t.Fatalf("seed %d: latency %v exceeds headroom %v", seed, l[v], hr[v])
			}
			if l[v] > lmax[v]+1e-9 {
				t.Fatalf("seed %d: latency %v exceeds lmax %v", seed, l[v], lmax[v])
			}
		}
	}
}
