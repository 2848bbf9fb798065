// Microbenchmarks for the flat-kernel fast path: CSR propagation, the
// parallel batch extractor, the allocation-lean incremental Update, and the
// §IV optimization trials that drive it. All report allocs/op so benchstat
// can track both time and GC pressure PR-over-PR.
package iterskew_test

import (
	"fmt"
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/opt"
	"iterskew/internal/timing"
)

// perfScale is the mid-size profile the hot-path benchmarks run on.
const perfScale = 0.02

func perfTimer(b *testing.B) *timing.Timer {
	b.Helper()
	d := genDesign(b, "superblue18", perfScale)
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		b.Fatal(err)
	}
	return tm
}

func BenchmarkExtractEssentialBatch(b *testing.B) {
	tm := perfTimer(b)
	viol := tm.ViolatedEndpoints(timing.Late, nil)
	if len(viol) == 0 {
		b.Skip("no violations")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var buf []timing.SeqEdge
			for i := 0; i < b.N; i++ {
				buf = tm.ExtractEssentialBatch(viol, timing.Late, 0, workers, buf[:0])
			}
			b.ReportMetric(float64(len(viol)), "endpoints")
			b.ReportMetric(float64(len(buf)), "edges")
		})
	}
}

func BenchmarkExtractAllFromBatch(b *testing.B) {
	tm := perfTimer(b)
	ffs := tm.D.FFs
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var buf []timing.SeqEdge
			for i := 0; i < b.N; i++ {
				buf = tm.ExtractAllFromBatch(ffs, timing.Late, workers, buf[:0])
			}
			b.ReportMetric(float64(len(buf)), "edges")
		})
	}
}

// BenchmarkIncrementalUpdate times Update alone, which propagates arrival
// times only; the required times it leaves queued are never read.
func BenchmarkIncrementalUpdate(b *testing.B) { benchUpdate(b, false) }

// BenchmarkSettledUpdate times Update followed by one LaunchLateSlack read,
// which settles the required times: the cost of a CSS round that reads the
// ŝ^L bound of §III-C1.
func BenchmarkSettledUpdate(b *testing.B) { benchUpdate(b, true) }

func benchUpdate(b *testing.B, settle bool) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tm := perfTimer(b)
			tm.SetWorkers(workers)
			ffs := tm.D.FFs
			before := tm.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Rotate a 20% slice of the flip-flops each iteration so the
				// dirty cones stay realistic for a CSS round.
				for j := i % 5; j < len(ffs); j += 5 {
					tm.SetExtraLatency(ffs[j], float64((i+j)%23))
				}
				tm.Update()
				if settle {
					tm.LaunchLateSlack(ffs[0])
				}
			}
			pins := tm.Stats.ForwardPinVisits - before.ForwardPinVisits +
				tm.Stats.BackwardPinVisits - before.BackwardPinVisits
			b.ReportMetric(float64(pins)/float64(b.N), "pins/op")
		})
	}
}

func BenchmarkCSRPropagation(b *testing.B) {
	tm := perfTimer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.FullUpdate()
	}
	b.ReportMetric(float64(len(tm.D.Pins)), "pins")
}

// BenchmarkOptimize times the §IV physical realization of one early
// schedule on superblue1: LCB–FF reconnection and cell-move trials, each an
// incremental timer update. The schedule is computed once; every iteration
// realizes it on a fresh clone and state, built with the timer stopped.
func BenchmarkOptimize(b *testing.B) {
	d := genDesign(b, "superblue1", 0.01)
	tm, err := timing.New(d, delay.Default())
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Schedule(tm, core.Options{Mode: timing.Early})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pins int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tm, err := timing.New(d.Clone(), delay.Default())
		if err != nil {
			b.Fatal(err)
		}
		before := tm.Stats
		b.StartTimer()
		opt.Optimize(tm, res.Target, opt.Options{})
		pins += tm.Stats.ForwardPinVisits - before.ForwardPinVisits +
			tm.Stats.BackwardPinVisits - before.BackwardPinVisits
	}
	b.ReportMetric(float64(pins)/float64(b.N), "pins/op")
}
