package iterskew_test

import (
	"sync"
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/engine"
	"iterskew/internal/eval"
	"iterskew/internal/flow"
	"iterskew/internal/fpm"
	"iterskew/internal/iccss"
	"iterskew/internal/timing"
)

// TestEngineSessionsMatchFlowRun sweeps the equivalence seeds and checks
// that concurrent engine sessions over one shared compiled graph reproduce
// direct flow.Run outcomes exactly: same final metrics, rounds, and
// extracted-edge counts as the timing-only flow configurations.
func TestEngineSessionsMatchFlowRun(t *testing.T) {
	type outcome struct {
		final  eval.Metrics
		rounds int
		edges  int64
		err    error
	}

	for _, seed := range equivSeeds {
		d := equivDesign(t, 0.01, seed)
		eng, err := engine.New(d, delay.Default(), engine.Config{MaxInFlight: 3})
		if err != nil {
			t.Fatal(err)
		}

		// The three timing-only flow configurations, replayed as engine
		// sessions: each session performs exactly the scheduler calls the
		// flow would, on a pooled state of the shared graph.
		sessions := []struct {
			name string
			cfg  flow.Config
			run  func(tm *timing.State) (int, error)
		}{
			{"fpm", flow.Config{Method: flow.FPM}, func(tm *timing.State) (int, error) {
				res, err := fpm.Schedule(tm, fpm.Options{})
				if err != nil {
					return 0, err
				}
				return res.Rounds, nil
			}},
			{"ours-skipopt", flow.Config{Method: flow.Ours, SkipOpt: true}, func(tm *timing.State) (int, error) {
				early, err := core.Schedule(tm, core.Options{Mode: timing.Early})
				if err != nil {
					return 0, err
				}
				late, err := core.Schedule(tm, core.Options{Mode: timing.Late})
				if err != nil {
					return 0, err
				}
				return early.Rounds + late.Rounds, nil
			}},
			{"iccss-skipopt", flow.Config{Method: flow.ICCSSPlus, SkipOpt: true}, func(tm *timing.State) (int, error) {
				early, err := iccss.Schedule(tm, iccss.Options{Mode: timing.Early})
				if err != nil {
					return 0, err
				}
				late, err := iccss.Schedule(tm, iccss.Options{Mode: timing.Late})
				if err != nil {
					return 0, err
				}
				return early.Rounds + late.Rounds, nil
			}},
		}

		got := make([]outcome, len(sessions))
		var wg sync.WaitGroup
		for i, s := range sessions {
			wg.Add(1)
			go func(i int, run func(tm *timing.State) (int, error)) {
				defer wg.Done()
				got[i].err = eng.Session(func(tm *timing.State) error {
					edges0 := tm.Stats.ExtractedEdges
					rounds, err := run(tm)
					if err != nil {
						return err
					}
					got[i].rounds = rounds
					got[i].edges = tm.Stats.ExtractedEdges - edges0
					got[i].final = eval.Measure(tm)
					return nil
				})
			}(i, s.run)
		}
		wg.Wait()

		for i, s := range sessions {
			if got[i].err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.name, got[i].err)
			}
			want, err := flow.Run(d, s.cfg)
			if err != nil {
				t.Fatalf("seed %d %s flow.Run: %v", seed, s.name, err)
			}
			if got[i].final != want.Final {
				t.Errorf("seed %d %s: engine metrics %+v vs flow %+v", seed, s.name, got[i].final, want.Final)
			}
			if got[i].rounds != want.Rounds {
				t.Errorf("seed %d %s: rounds %d vs flow %d", seed, s.name, got[i].rounds, want.Rounds)
			}
			if got[i].edges != want.ExtractedEdges {
				t.Errorf("seed %d %s: edges %d vs flow %d", seed, s.name, got[i].edges, want.ExtractedEdges)
			}
			if want.ClonedInput {
				t.Errorf("seed %d %s: timing-only flow.Run cloned its input", seed, s.name)
			}
		}
	}
}
