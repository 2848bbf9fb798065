// Min_period demonstrates the classical clock skew scheduling question the
// paper's machinery answers in milliseconds: how fast can this design be
// clocked with unrestricted useful skew?
//
// On a register ring the answer has a closed form — the maximum mean cycle
// delay (Albrecht et al. [8]) — so the example builds rings, computes the
// MMWC bound from the extracted sequential graph, and shows the iterative
// engine's binary-searched minimum period landing on it.
package main

import (
	"fmt"
	"log"

	"iterskew"
	"iterskew/internal/bench"
	"iterskew/internal/seqgraph"
	"iterskew/internal/timing"
)

func main() {
	fmt.Printf("%-14s | %10s | %12s | %12s | %7s\n",
		"design", "T0 (ps)", "zero-skew T", "min T (CSS)", "probes")

	for _, cfg := range []struct {
		stages, width int
		slow          []int
	}{
		{4, 1, nil},
		{6, 2, []int{0}},
		{8, 3, []int{2}},
	} {
		d, err := bench.RingPipeline(cfg.stages, cfg.width, bench.StructOptions{
			SlowStages: cfg.slow, Seed: 11,
		})
		if err != nil {
			log.Fatal(err)
		}
		tm, err := iterskew.NewTimer(d)
		if err != nil {
			log.Fatal(err)
		}

		// Zero-skew bound: the worst per-endpoint critical period.
		zeroSkew := 0.0
		for _, ff := range d.FFs {
			e := tm.EndpointOf(ff)
			if tc := d.Period - tm.LateSlack(e); tc > zeroSkew {
				zeroSkew = tc
			}
		}

		res, err := iterskew.MinPeriod(d, 0, 2*zeroSkew, 0.5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ring %2dx%-2d %s | %10.1f | %12.1f | %12.1f | %7d\n",
			cfg.stages, cfg.width, slowTag(cfg.slow), d.Period, zeroSkew, res.Period, res.Probes)

		// Cross-check on the cycle bound: extract the full sequential graph
		// and compute the maximum mean cycle DELAY, the theoretical floor.
		g := seqgraph.New()
		var buf []timing.SeqEdge
		for _, ff := range d.FFs {
			buf = tm.ExtractAllFrom(ff, timing.Late, buf[:0])
			for _, e := range buf {
				g.AddSeqEdge(e, d.IsPort)
			}
		}
		// Cycle mean of DELAY+setup = minimum period on that cycle.
		w := make([]float64, len(g.Edges))
		for i := range g.Edges {
			w[i] = g.Edges[i].Seq.Delay + 45 // + DFF setup
		}
		if mean, _, ok := g.MaxMeanCycle(w, nil); ok {
			fmt.Printf("%14s | MMWC bound: %.1f ps (min T lands within %.1f ps)\n",
				"", mean, res.Period-mean)
		}
	}
}

func slowTag(s []int) string {
	if len(s) == 0 {
		return "bal "
	}
	return "slow"
}
