// Benchmarks regenerating the paper's evaluation artifacts:
//
//   - BenchmarkTable1_*        — one full-flow run per Table-I column group
//   - BenchmarkFig8_Trajectory — the per-iteration process of Fig 8
//   - BenchmarkExtraction_*    — the essential-vs-full extraction contrast
//     behind the 49× CSS speedup / 90% edge reduction
//   - BenchmarkComplexity_*    — the O(k·m') claim of §III-D
//   - BenchmarkAblation_*      — design-choice ablations (Eq 11 headroom,
//     §III-C2 non-negative construction)
//   - BenchmarkSTA_* and friends — substrate micro-benchmarks
//
// Custom metrics (edges, rounds, WNS/TNS improvements) are attached through
// b.ReportMetric, so `go test -bench . -benchmem` prints the experiment's
// numbers alongside the timings.
package iterskew_test

import (
	"math"
	"math/rand"
	"testing"

	"iterskew"
	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/netlist"
	"iterskew/internal/seqgraph"
	"iterskew/internal/timing"
)

const benchScale = 0.01

func genDesign(b *testing.B, name string, scale float64) *netlist.Design {
	b.Helper()
	p, err := iterskew.SuperblueProfile(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// --- Table I ---------------------------------------------------------------

func benchTable1(b *testing.B, design string, method iterskew.Method) {
	d := genDesign(b, design, benchScale)
	b.ResetTimer()
	var rep *iterskew.FlowReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = iterskew.RunFlow(d, iterskew.FlowConfig{Method: method})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.ExtractedEdges), "edges")
	b.ReportMetric(rep.Final.WNSEarly, "eWNS_ps")
	b.ReportMetric(rep.Final.TNSLate, "lTNS_ps")
	b.ReportMetric(rep.HPWLIncrPct, "hpwl_%")
}

func BenchmarkTable1_Superblue18_FPM(b *testing.B) { benchTable1(b, "superblue18", iterskew.FPM) }
func BenchmarkTable1_Superblue18_OursEarly(b *testing.B) {
	benchTable1(b, "superblue18", iterskew.OursEarly)
}
func BenchmarkTable1_Superblue18_ICCSS(b *testing.B) {
	benchTable1(b, "superblue18", iterskew.ICCSSPlus)
}
func BenchmarkTable1_Superblue18_Ours(b *testing.B) { benchTable1(b, "superblue18", iterskew.Ours) }

func BenchmarkTable1_Superblue1_Ours(b *testing.B)  { benchTable1(b, "superblue1", iterskew.Ours) }
func BenchmarkTable1_Superblue5_Ours(b *testing.B)  { benchTable1(b, "superblue5", iterskew.Ours) }
func BenchmarkTable1_Superblue16_Ours(b *testing.B) { benchTable1(b, "superblue16", iterskew.Ours) }

// --- Fig 8 ------------------------------------------------------------------

func BenchmarkFig8_Trajectory(b *testing.B) {
	d := genDesign(b, "superblue18", benchScale)
	b.ResetTimer()
	var rep *iterskew.FlowReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = iterskew.RunFlow(d, iterskew.FlowConfig{Method: iterskew.Ours})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.Trajectory)), "trajPoints")
	b.ReportMetric(float64(rep.Rounds), "cssRounds")
}

// --- Extraction contrast (headline claims) ----------------------------------

// BenchmarkExtraction_EssentialCSS times the paper's CSS alone (extraction
// via timing propagation), BenchmarkExtraction_ICCSS the critical-vertex
// callback variant. Their ratio is the paper's 49.11× / −90.05% claim.
func BenchmarkExtraction_EssentialCSS(b *testing.B) {
	d := genDesign(b, "superblue18", benchScale)
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dd := d.Clone()
		tm, err := timing.New(dd, delay.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := mustCoreSchedule(b, tm, core.Options{Mode: timing.Late})
		edges = res.EdgesExtracted
	}
	b.ReportMetric(float64(edges), "edges")
}

func BenchmarkExtraction_ICCSS(b *testing.B) {
	d := genDesign(b, "superblue18", benchScale)
	b.ResetTimer()
	var edges int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dd := d.Clone()
		tm, err := timing.New(dd, delay.Default())
		if err != nil {
			b.Fatal(err)
		}
		e0 := tm.Stats.ExtractedEdges
		b.StartTimer()
		mustScheduleICCSS(b, tm, iterskew.ICCSSOptions{Mode: timing.Late})
		edges = tm.Stats.ExtractedEdges - e0
	}
	b.ReportMetric(float64(edges), "edges")
}

func BenchmarkExtraction_FPMFullGraph(b *testing.B) {
	d := genDesign(b, "superblue18", benchScale)
	b.ResetTimer()
	var edges int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dd := d.Clone()
		tm, err := timing.New(dd, delay.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := iterskew.ScheduleFPM(tm, iterskew.FPMOptions{})
		if err != nil {
			b.Fatal(err)
		}
		edges = res.EdgesExtracted
	}
	b.ReportMetric(float64(edges), "edges")
}

// --- §III-D complexity ------------------------------------------------------

func benchComplexity(b *testing.B, scale float64) {
	d := genDesign(b, "superblue18", scale)
	b.ResetTimer()
	var rounds, edges int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dd := d.Clone()
		tm, err := timing.New(dd, delay.Default())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := mustCoreSchedule(b, tm, core.Options{Mode: timing.Late})
		rounds, edges = res.Rounds, res.EdgesExtracted
	}
	b.ReportMetric(float64(rounds), "k")
	b.ReportMetric(float64(edges), "edges")
	b.ReportMetric(float64(len(d.FFs)), "n_FFs")
}

func BenchmarkComplexity_Scale0005(b *testing.B) { benchComplexity(b, 0.005) }
func BenchmarkComplexity_Scale001(b *testing.B)  { benchComplexity(b, 0.01) }
func BenchmarkComplexity_Scale002(b *testing.B)  { benchComplexity(b, 0.02) }
func BenchmarkComplexity_Scale004(b *testing.B)  { benchComplexity(b, 0.04) }

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblation_Headroom removes the Eq-11 ŝ bound: late scheduling then
// creates early violations, quantified by the eWNSdmg metric (ps of early
// WNS damage; 0 with the bound in place).
func BenchmarkAblation_Headroom(b *testing.B) {
	d := genDesign(b, "superblue18", benchScale)
	for _, disable := range []struct {
		name string
		on   bool
	}{{"with_shat", false}, {"without_shat", true}} {
		b.Run(disable.name, func(b *testing.B) {
			var dmg float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dd := d.Clone()
				tm, err := timing.New(dd, delay.Default())
				if err != nil {
					b.Fatal(err)
				}
				e0, _ := tm.WNSTNS(timing.Early)
				b.StartTimer()
				mustCoreSchedule(b, tm, core.Options{Mode: timing.Late, DisableHeadroom: disable.on})
				b.StopTimer()
				e1, _ := tm.WNSTNS(timing.Early)
				dmg = math.Min(0, e1-math.Min(e0, 0))
				b.StartTimer()
			}
			b.ReportMetric(-dmg, "eWNSdmg_ps")
		})
	}
}

// BenchmarkAblation_NonNegative compares arborescence construction with and
// without the §III-C2 non-decreasing condition, reporting how many vertices
// would receive a NEGATIVE latency from the mean-weight assignment when the
// condition is dropped.
func BenchmarkAblation_NonNegative(b *testing.B) {
	// Chains whose weight magnitude GROWS toward the leaf (w decreasing:
	// −10, −20, −30 …): Fig 5's terminal-mean latency assignment then turns
	// negative on the shallow prefix unless the Eq-6 condition splits such
	// chains during construction.
	rng := rand.New(rand.NewSource(42))
	mk := func() (*seqgraph.Graph, []float64) {
		g := seqgraph.New()
		var w []float64
		cell := netlist.CellID(0)
		for c := 0; c < 20; c++ {
			n := 4 + rng.Intn(4)
			for i := 0; i < n-1; i++ {
				g.AddSeqEdge(timing.SeqEdge{
					Launch:  cell + netlist.CellID(i),
					Capture: cell + netlist.CellID(i+1),
					Mode:    timing.Late,
				}, func(netlist.CellID) bool { return false })
				w = append(w, -10*float64(i+1)-rng.Float64())
			}
			cell += netlist.CellID(n)
		}
		return g, w
	}
	// negCount applies the Fig-5 assignment per tree: wEnd is the deepest
	// leaf's path mean; l_v = β·wEnd − α.
	negCount := func(f *seqgraph.Forest) int {
		rootOf := func(v seqgraph.VertexID) seqgraph.VertexID {
			for f.ParentV[v] != seqgraph.NoVertex {
				v = f.ParentV[v]
			}
			return v
		}
		wEnd := map[seqgraph.VertexID]float64{}
		deep := map[seqgraph.VertexID]int32{}
		for _, v := range f.Order {
			if f.Beta[v] == 0 {
				continue
			}
			r := rootOf(v)
			if f.Beta[v] > deep[r] {
				deep[r] = f.Beta[v]
				wEnd[r] = f.Alpha[v] / float64(f.Beta[v])
			}
		}
		neg := 0
		for _, v := range f.Order {
			r := rootOf(v)
			if float64(f.Beta[v])*wEnd[r]-f.Alpha[v] < -1e-9 {
				neg++
			}
		}
		return neg
	}

	b.Run("with_condition", func(b *testing.B) {
		var neg int
		for i := 0; i < b.N; i++ {
			g, w := mk()
			f, cyc := g.BuildForest(w, nil, math.Inf(1))
			if cyc == nil {
				neg = negCount(f)
			}
		}
		b.ReportMetric(float64(neg), "negLatencies")
	})
	b.Run("without_condition", func(b *testing.B) {
		var neg int
		for i := 0; i < b.N; i++ {
			g, w := mk()
			f, cyc := g.BuildForestLoose(w, nil, math.Inf(1))
			if cyc == nil {
				neg = negCount(f)
			}
		}
		b.ReportMetric(float64(neg), "negLatencies")
	})
}

// --- Substrate micro-benchmarks ----------------------------------------------

func BenchmarkSTA_FullUpdate(b *testing.B) {
	d := genDesign(b, "superblue18", benchScale)
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.FullUpdate()
	}
	b.ReportMetric(float64(len(d.Pins)), "pins")
}

func BenchmarkSTA_IncrementalLatency(b *testing.B) {
	d := genDesign(b, "superblue18", benchScale)
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		b.Fatal(err)
	}
	ff := d.FFs[len(d.FFs)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.SetExtraLatency(ff, float64(i%7)*3)
		tm.Update()
	}
}

func BenchmarkSTA_EssentialExtraction(b *testing.B) {
	d := genDesign(b, "superblue18", benchScale)
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		b.Fatal(err)
	}
	viol := tm.ViolatedEndpoints(timing.Late, nil)
	if len(viol) == 0 {
		b.Skip("no violations")
	}
	var buf []timing.SeqEdge
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tm.ExtractEssentialAt(viol[i%len(viol)], timing.Late, 0, buf[:0])
	}
}

func BenchmarkSTA_FullConeExtraction(b *testing.B) {
	d := genDesign(b, "superblue18", benchScale)
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		b.Fatal(err)
	}
	var buf []timing.SeqEdge
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tm.ExtractAllFrom(d.FFs[i%len(d.FFs)], timing.Late, buf[:0])
	}
}

func BenchmarkArborescence(b *testing.B) {
	d := genDesign(b, "superblue18", benchScale)
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		b.Fatal(err)
	}
	// Build a realistic essential graph once.
	g := seqgraph.New()
	var buf []timing.SeqEdge
	for _, e := range tm.ViolatedEndpoints(timing.Late, nil) {
		buf = tm.ExtractEssentialAt(e, timing.Late, 0, buf[:0])
		for _, se := range buf {
			g.AddSeqEdge(se, d.IsPort)
		}
	}
	w := make([]float64, len(g.Edges))
	for i := range g.Edges {
		w[i] = tm.EdgeSlack(g.Edges[i].Seq)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BuildForest(w, nil, math.Inf(1))
	}
	b.ReportMetric(float64(len(g.Edges)), "edges")
}

func BenchmarkGenerator(b *testing.B) {
	p, err := iterskew.SuperblueProfile("superblue18", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := iterskew.GenerateBenchmark(p); err != nil {
			b.Fatal(err)
		}
	}
}
