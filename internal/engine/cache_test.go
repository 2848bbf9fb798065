package engine_test

import (
	"math"
	"sync"
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/engine"
	"iterskew/internal/fuzz"
	"iterskew/internal/graphio"
	"iterskew/internal/netlist"
	"iterskew/internal/obs"
	"iterskew/internal/timing"
)

func genDesign(t testing.TB, seed int64) *netlist.Design {
	t.Helper()
	d, err := fuzz.Generate(fuzz.FromSeed(seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return d
}

func TestCacheHitMissEvict(t *testing.T) {
	rec := obs.NewRecorder()
	m := delay.Default()
	d0, d1 := genDesign(t, 0), genDesign(t, 1)

	// Unbounded cache: second Get for the same inputs must return the very
	// same graph pointer.
	c := engine.NewCache(0, rec)
	g0, err := c.Get(d0, m)
	if err != nil {
		t.Fatal(err)
	}
	g0b, err := c.Get(d0, m)
	if err != nil {
		t.Fatal(err)
	}
	if g0 != g0b {
		t.Fatalf("second Get recompiled instead of hitting the cache")
	}
	if _, err := c.Get(d1, m); err != nil {
		t.Fatal(err)
	}
	if hits := rec.Counter(obs.CtrGraphCacheHits); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if misses := rec.Counter(obs.CtrGraphCacheMisses); misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
	st := c.Stats()
	if st.Graphs != 2 || st.Bytes != g0.Bytes()+mustGraph(t, c, d1, m).Bytes() {
		t.Fatalf("stats = %+v", st)
	}
	if got := rec.Gauge(obs.GaugeCacheGraphs); got != 2 {
		t.Fatalf("gauge cache_graphs = %d, want 2", got)
	}
	if got := rec.Gauge(obs.GaugeCacheBytes); got != st.Bytes {
		t.Fatalf("gauge cache_bytes = %d, want %d", got, st.Bytes)
	}

	// A budget barely above one graph forces the older entry out.
	small := engine.NewCache(g0.Bytes()+1, rec)
	if _, err := small.Get(d0, m); err != nil {
		t.Fatal(err)
	}
	if _, err := small.Get(d1, m); err != nil {
		t.Fatal(err)
	}
	if st := small.Stats(); st.Graphs != 1 {
		t.Fatalf("after eviction: %+v", st)
	}
	if ev := rec.Counter(obs.CtrGraphCacheEvicts); ev != 1 {
		t.Fatalf("evicts = %d, want 1", ev)
	}
	// d0 was evicted: fetching it again must miss (and evict d1 in turn).
	if _, err := small.Get(d0, m); err != nil {
		t.Fatal(err)
	}
	if misses := rec.Counter(obs.CtrGraphCacheMisses); misses != 5 {
		t.Fatalf("misses = %d, want 5", misses)
	}
}

func mustGraph(t testing.TB, c *engine.Cache, d *netlist.Design, m delay.Model) *timing.Graph {
	t.Helper()
	g, err := c.Get(d, m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCacheOversizedGraphAdmitted(t *testing.T) {
	c := engine.NewCache(1, nil) // budget below any graph
	d := genDesign(t, 2)
	g, err := c.Get(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	if g2, ok := c.Lookup(mustHash(t, d)); !ok || g2 != g {
		t.Fatalf("oversized graph not retained as the sole resident")
	}
}

func mustHash(t testing.TB, d *netlist.Design) graphio.Hash {
	t.Helper()
	h, err := graphio.HashOf(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCacheConcurrentGet(t *testing.T) {
	c := engine.NewCache(0, obs.NewRecorder())
	m := delay.Default()
	designs := []*netlist.Design{genDesign(t, 0), genDesign(t, 1), genDesign(t, 2)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if _, err := c.Get(designs[(i+j)%len(designs)], m); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if st := c.Stats(); st.Graphs != len(designs) {
		t.Fatalf("residency %+v, want %d graphs", st, len(designs))
	}
}

// TestEngineRecompile drives an ECO through a live engine: schedule, mutate
// the design, Engine.Recompile, schedule again — the post-ECO schedule must
// be bitwise identical to a freshly compiled engine over the mutated design.
func TestEngineRecompile(t *testing.T) {
	d := genDesign(t, 3)
	m := delay.Default()
	e, err := engine.New(d, m, engine.Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	schedule := func(e *engine.Engine) map[netlist.CellID]float64 {
		t.Helper()
		var target map[netlist.CellID]float64
		err := e.Session(func(tm *timing.State) error {
			res, err := core.Schedule(tm, core.Options{StallRounds: -1})
			if err != nil {
				return err
			}
			target = res.Target
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return target
	}
	_ = schedule(e) // warm the pool with a pre-ECO state

	// ECO: nudge a combinational cell and recompile in place.
	var moved netlist.CellID = netlist.NoCell
	for ci := range d.Cells {
		if d.Cells[ci].Type.Kind == netlist.KindComb {
			pos := d.Cells[ci].Pos
			pos.X += 2
			if d.MoveCell(netlist.CellID(ci), pos) {
				moved = netlist.CellID(ci)
				break
			}
		}
	}
	if moved == netlist.NoCell {
		t.Skip("no movable comb cell in this design")
	}
	st, err := e.Recompile(timing.Delta{Cells: []netlist.CellID{moved}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Full {
		t.Logf("single-cell delta fell back to full compile: %+v", st)
	}

	fresh, err := engine.New(d, m, engine.Config{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, want := schedule(e), schedule(fresh)
	if len(got) != len(want) {
		t.Fatalf("target count %d != %d", len(got), len(want))
	}
	for c, v := range want {
		if math.Float64bits(got[c]) != math.Float64bits(v) {
			t.Fatalf("target[%d]: %v != %v", c, got[c], v)
		}
	}
	if e.StatesDiscarded() == 0 {
		t.Fatalf("Recompile kept stale pooled states")
	}
}
