package timing

import (
	"math"
	"testing"

	"iterskew/internal/delay"
)

// cornerFixture compiles the standard fixture's graph once so several states
// (corners) can share it.
func cornerFixture(t *testing.T) (*fixture, *Graph) {
	t.Helper()
	f := newFixture(t)
	g, err := Compile(f.d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	return f, g
}

func TestValidateCornersRejectsDegenerateSpecs(t *testing.T) {
	cases := []struct {
		name    string
		corners []Corner
	}{
		{"empty list", nil},
		{"negative period", []Corner{{Period: -5}}},
		{"infinite period", []Corner{{Period: math.Inf(1)}}},
		{"nan period", []Corner{{Period: math.NaN()}}},
		{"negative derate", []Corner{{DerateEarly: -0.9}}},
		{"nan derate", []Corner{{DerateLate: math.NaN()}}},
		{"infinite derate", []Corner{{DerateEarly: math.Inf(1)}}},
		{"duplicate explicit names", []Corner{{Name: "wc"}, {Name: "wc", Period: 500}}},
		{"auto name collides with explicit", []Corner{{Name: "c1"}, {Period: 500}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateCorners(fxPeriod, tc.corners); err == nil {
				t.Fatalf("ValidateCorners accepted %v", tc.corners)
			}
		})
	}
	// A design period of 0 makes a Period: 0 corner unresolvable.
	if err := ValidateCorners(0, []Corner{{}}); err == nil {
		t.Fatal("ValidateCorners accepted an unresolvable zero period")
	}
	if err := ValidateCorners(fxPeriod, []Corner{{Name: "wc"}, {Name: "bc", Period: 500, DerateEarly: 0.9, DerateLate: 1.1}}); err != nil {
		t.Fatalf("ValidateCorners rejected a valid list: %v", err)
	}
}

func TestNewCornerSetFromRejectsMixedGraphs(t *testing.T) {
	f, g := cornerFixture(t)
	other, err := Compile(f.d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCornerSetFrom([]*State{g.NewState(), other.NewState()}, []string{"a", "b"}); err == nil {
		t.Fatal("NewCornerSetFrom accepted states on different graphs")
	}
	if _, err := NewCornerSetFrom([]*State{g.NewState()}, []string{"a", "b"}); err == nil {
		t.Fatal("NewCornerSetFrom accepted mismatched name count")
	}
	if _, err := NewCornerSetFrom(nil, nil); err == nil {
		t.Fatal("NewCornerSetFrom accepted zero states")
	}
}

// TestSingleCornerSetMatchesState: a one-corner CornerSet is bit-identical to
// the plain State it wraps, through perturbation and incremental update.
func TestSingleCornerSetMatchesState(t *testing.T) {
	f, g := cornerFixture(t)
	plain, err := New(f.d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCornerSet(g, []Corner{{Name: "typ"}})
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumCorners() != 1 || cs.CornerName(0) != "typ" {
		t.Fatalf("corner bookkeeping: n=%d name=%q", cs.NumCorners(), cs.CornerName(0))
	}

	compare := func(stage string) {
		t.Helper()
		if p1, p2 := plain.Period(), cs.Period(); p1 != p2 {
			t.Fatalf("%s: period %v vs %v", stage, p1, p2)
		}
		for e := range plain.Endpoints() {
			id := EndpointID(e)
			for _, m := range []Mode{Late, Early} {
				a, b := plain.Slack(id, m), cs.Slack(id, m)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: endpoint %d %v slack %v vs %v", stage, e, m, a, b)
				}
			}
		}
		for _, m := range []Mode{Late, Early} {
			w1, n1 := plain.WNSTNS(m)
			w2, n2 := cs.WNSTNS(m)
			if math.Float64bits(w1) != math.Float64bits(w2) || math.Float64bits(n1) != math.Float64bits(n2) {
				t.Fatalf("%s: %v WNS/TNS %v/%v vs %v/%v", stage, m, w1, n1, w2, n2)
			}
			v1 := plain.ViolatedEndpoints(m, nil)
			v2 := cs.ViolatedEndpoints(m, nil)
			if len(v1) != len(v2) {
				t.Fatalf("%s: %v violated %d vs %d", stage, m, len(v1), len(v2))
			}
			e1 := plain.ExtractAllFrom(f.ffA, m, nil)
			e2 := cs.ExtractAllFrom(f.ffA, m, nil)
			if len(e1) != len(e2) {
				t.Fatalf("%s: %v edges %d vs %d", stage, m, len(e1), len(e2))
			}
			for i := range e1 {
				if e1[i] != e2[i] {
					t.Fatalf("%s: edge %d %+v vs %+v", stage, i, e1[i], e2[i])
				}
			}
		}
	}

	compare("initial")
	plain.AddExtraLatency(f.ffA, 7.5)
	cs.AddExtraLatency(f.ffA, 7.5)
	p1, p2 := plain.Update(), cs.Update()
	if p1 != p2 {
		t.Fatalf("update visited %d vs %d pins", p1, p2)
	}
	compare("after update")
	if cs.UnionDiffRounds() != 0 {
		t.Fatalf("single corner counted %d diff rounds", cs.UnionDiffRounds())
	}
}

// TestDuplicateCornerIsNoOp: duplicating a corner changes no envelope value
// and never counts as a union difference.
func TestDuplicateCornerIsNoOp(t *testing.T) {
	_, g := cornerFixture(t)
	one, err := NewCornerSet(g, []Corner{{Name: "wc", Period: 120, DerateLate: 1.1}})
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewCornerSet(g, []Corner{
		{Name: "wc", Period: 120, DerateLate: 1.1},
		{Name: "wc2", Period: 120, DerateLate: 1.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := range g.Endpoints() {
		id := EndpointID(e)
		for _, m := range []Mode{Late, Early} {
			a, b := one.Slack(id, m), two.Slack(id, m)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("endpoint %d %v: %v vs %v", e, m, a, b)
			}
		}
	}
	for _, m := range []Mode{Late, Early} {
		violated := two.ViolatedEndpoints(m, nil)
		two.ExtractEssentialBatch(violated, m, 0, 0, nil)
	}
	if n := two.UnionDiffRounds(); n != 0 {
		t.Fatalf("identical corners counted %d diff rounds", n)
	}
}

// TestCornerEnvelopeIsMinimum: the set's slack is the bitwise minimum over
// the member states' slacks, and WNSTNS follows the envelope.
func TestCornerEnvelopeIsMinimum(t *testing.T) {
	_, g := cornerFixture(t)
	cs, err := NewCornerSet(g, []Corner{
		{Name: "fast", Period: 90, DerateEarly: 0.85, DerateLate: 0.95},
		{Name: "slow", Period: 140, DerateEarly: 1.0, DerateLate: 1.15},
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := range g.Endpoints() {
		id := EndpointID(e)
		for _, m := range []Mode{Late, Early} {
			want := math.Min(cs.State(0).Slack(id, m), cs.State(1).Slack(id, m))
			if got := cs.Slack(id, m); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("endpoint %d %v: envelope %v want %v", e, m, got, want)
			}
		}
		want := math.Min(cs.State(0).EarlySlack(id), cs.State(1).EarlySlack(id))
		if got := cs.EarlySlack(id); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("endpoint %d hold envelope %v want %v", e, got, want)
		}
	}
	if cs.RefCorner() != 0 {
		t.Fatalf("reference corner %d, want the minimum-period corner 0", cs.RefCorner())
	}
	if cs.Period() != 90 {
		t.Fatalf("set period %v, want the tightest corner's 90", cs.Period())
	}
}

// TestCornerNormalizationPreservesSlack: every late edge the union extractor
// returns evaluates — at the reference state — to the slack the edge has in
// its corner of origin, the invariant the schedulers' weight function relies
// on.
func TestCornerNormalizationPreservesSlack(t *testing.T) {
	f, g := cornerFixture(t)
	cs, err := NewCornerSet(g, []Corner{
		{Name: "tight", Period: 100},
		{Name: "loose", Period: 160, DerateLate: 1.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := cs.State(cs.RefCorner())

	for ci := 0; ci < cs.NumCorners(); ci++ {
		s := cs.State(ci)
		raw := s.ExtractAllFrom(f.ffA, Late, nil)
		if len(raw) == 0 {
			t.Fatalf("corner %d extracted no late edges", ci)
		}
		for _, e := range raw {
			orig := s.EdgeSlack(e)
			e.Delay += ref.Period() - s.Period() // the union extractor's shift
			if got := ref.EdgeSlack(e); math.Abs(got-orig) > 1e-9 {
				t.Fatalf("corner %d edge %d→%d: normalized slack %v, origin slack %v",
					ci, e.Launch, e.Capture, got, orig)
			}
		}
	}

	// The set's own extraction is exactly the per-corner extractions with the
	// shift applied, concatenated in corner order.
	var want []SeqEdge
	for ci := 0; ci < cs.NumCorners(); ci++ {
		s := cs.State(ci)
		start := len(want)
		want = s.ExtractAllFrom(f.ffA, Late, want)
		for j := start; j < len(want); j++ {
			want[j].Delay += ref.Period() - s.Period()
		}
	}
	got := cs.ExtractAllFrom(f.ffA, Late, nil)
	if len(got) != len(want) {
		t.Fatalf("union has %d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Launch != want[i].Launch || got[i].Capture != want[i].Capture ||
			got[i].Mode != want[i].Mode ||
			math.Float64bits(got[i].Delay) != math.Float64bits(want[i].Delay) {
			t.Fatalf("union edge %d: %+v want %+v", i, got[i], want[i])
		}
	}
}

// TestUnionDiffRoundsCountsDivergence: corners whose violating sets differ
// make the essential-edge union diverge, and the counter records it.
func TestUnionDiffRoundsCountsDivergence(t *testing.T) {
	_, g := cornerFixture(t)
	// 70 ps leaves ffB's setup violated; 1000 ps (the design period) does not.
	cs, err := NewCornerSet(g, []Corner{
		{Name: "tight", Period: 70},
		{Name: "relaxed"},
	})
	if err != nil {
		t.Fatal(err)
	}
	violated := cs.ViolatedEndpoints(Late, nil)
	if len(violated) == 0 {
		t.Fatal("tight corner produced no envelope violations")
	}
	edges := cs.ExtractEssentialBatch(violated, Late, 0, 0, nil)
	if len(edges) == 0 {
		t.Fatal("union extraction returned no edges")
	}
	if n := cs.UnionDiffRounds(); n < 1 {
		t.Fatalf("diverging corners counted %d diff rounds, want ≥ 1", n)
	}
}

// TestCornerSetLatencyFanout: AddExtraLatency reaches every corner, keeping
// the assignment corner-invariant.
func TestCornerSetLatencyFanout(t *testing.T) {
	f, g := cornerFixture(t)
	cs, err := NewCornerSet(g, []Corner{
		{Name: "a", Period: 100},
		{Name: "b", Period: 150},
	})
	if err != nil {
		t.Fatal(err)
	}
	cs.AddExtraLatency(f.ffA, 12.25)
	cs.Update()
	for i := 0; i < cs.NumCorners(); i++ {
		if got := cs.State(i).ExtraLatency(f.ffA); got != 12.25 {
			t.Fatalf("corner %d extra latency %v, want 12.25", i, got)
		}
	}
	if got := cs.ExtraLatency(f.ffA); got != 12.25 {
		t.Fatalf("set extra latency %v, want 12.25", got)
	}
}
