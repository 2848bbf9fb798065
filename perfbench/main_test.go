package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// testSeed differs from the seeds the benchmark's figures were tuned on, so
// a claim can be rechecked on inputs nobody looked at while making it.
const testSeed = 7

// TestExactCountsRepeat runs the traced pass of every workload twice: every
// per-cycle count must come out identical.
func TestExactCountsRepeat(t *testing.T) {
	fl, err := makeFleet(testSeed)
	if err != nil {
		t.Fatal(err)
	}
	env, err := newTracedEnv(fl, min(2, runtime.NumCPU()))
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	for _, w := range workloads {
		var first map[string]float64
		for n := 0; n < 2; n++ {
			tr := newTracer()
			p, err := env.pass(w, tr, n)
			if err != nil {
				t.Fatalf("%s pass %d: %v", w, n, err)
			}
			for _, msg := range p.problems {
				t.Errorf("%s pass %d: %s", w, n, msg)
			}
			if len(tr.counts) == 0 {
				t.Fatalf("%s: the traced pass counted nothing", w)
			}
			if first == nil {
				first = tr.counts
				continue
			}
			if !sameCounts(first, tr.counts) {
				t.Errorf("%s: counts moved between traced passes:\n%v\n%v", w, first, tr.counts)
			}
		}
	}
}

// TestEndToEndOtherSeed runs every workload untraced and one traced run on
// testSeed through the command's entry point, and checks the result lines
// against BENCHMARK.json: every declared metric present with its unit, and
// every output check passed.
func TestEndToEndOtherSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(args []string, want []struct{ Name, Unit string }) {
		t.Helper()
		var out, errOut bytes.Buffer
		code := run(append(args, "--seed", "7", "--seconds", "1"), &out, &errOut)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%v: result line: %v\n%s", args, err, errOut.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%v: exit %d, correct=%v, %d of %d failed\n%s", args, code, res.Correct, res.Failed, res.Attempted, errOut.String())
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("%v: %d metrics, BENCHMARK.json declares %d", args, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%v: metric %s = %+v, want unit %s", args, m.Name, got, m.Unit)
			}
		}
	}
	for _, w := range workloads {
		check([]string{"--workload", w, "--trace", "0"}, spec.EndToEnd)
	}
	check([]string{"--workload", "ingest", "--trace", "1"}, spec.PerLayer)
}
