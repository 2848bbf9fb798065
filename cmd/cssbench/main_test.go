package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"iterskew"
)

// readBench returns the file's top-level JSON values as written, and the
// file decoded.
func readBench(t *testing.T, path string) (map[string]json.RawMessage, benchJSON) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var blocks map[string]json.RawMessage
	var b benchJSON
	if err := json.Unmarshal(data, &blocks); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return blocks, b
}

// TestTableIKeepsMergedBlocks: the Table-I write replaces every field the
// run measures and keeps, byte for byte, the service and mcmm blocks that
// -load and -corners merged into the file.
func TestTableIKeepsMergedBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	old := benchJSON{
		Scale: 0.5, Workers: 3, CPUs: 1, Note: "old note",
		Rows:      []rowJSON{{Design: "old", Method: "Ours", Edges: 9, StopReason: "stalled"}},
		Micro:     []microJSON{{Name: "old_micro", Iters: 1}},
		Phases:    []iterskew.PhaseStat{{Name: "old_phase", Count: 1}},
		ColdStart: []coldStartJSON{{Design: "old", HashNs: 1}},
		Recompile: []recompileJSON{{Design: "old", FullFallbacks: 2}},
		Service: &serviceJSON{
			Addr: "127.0.0.1:1", Design: "superblue18", Clients: 4, JobsPerClient: 6,
			Completed: 24, Streamed: 12, RoundLines: 31, Rejected429: 5, RetryAfterMissing: 0,
			WallSec: 1.25, JobsPerSec: 19.2, P50Ms: 3.5, P90Ms: 7.25, P99Ms: 9.125, MaxMs: 11,
			Identical: true,
			Metrics: &metricsJSON{ExpositionValid: true, Series: 40, Monotonic: true,
				JobsDelta: 24, JobsRouteDelta: 29, SchedulerHists: true, Consistent: true},
		},
		MCMM: &mcmmJSON{
			Design: "superblue18", Corners: 3, Service: true, SingleSec: 0.01, MultiSec: 0.025,
			CostRatio: 2.5, DiffRounds: 2, EnvelopeWNS: -1.5, BindingCorner: "slow",
			BindingSlack: 0.25, OracleOK: true,
			Rows: []mcmmCornerJSON{{Name: "slow", PeriodPS: 700, DerateEarly: 0.9, DerateLate: 1.1,
				WNSEarlyPS: -1, TNSEarlyPS: -2, HoldWS: 0.5, SetupWSBefore: -30, SetupWSAfter: -20}},
		},
	}
	if err := mergeBench(path, func(out *benchJSON) { *out = old }); err != nil {
		t.Fatal(err)
	}
	before, _ := readBench(t, path)

	run := benchJSON{
		Scale: 0.01, Workers: 8, CPUs: 2,
		Rows:      []rowJSON{{Design: "superblue1", Method: "Ours", Edges: 100, Rounds: 4, StopReason: "converged"}},
		Micro:     []microJSON{{Name: "incremental_update", Workers: 1, Iters: 20}},
		ColdStart: []coldStartJSON{{Design: "superblue1", HashNs: 2e6, Identical: true}},
		Recompile: []recompileJSON{{Design: "superblue1", Identical: true}},
	}
	if err := writeTableI(path, run); err != nil {
		t.Fatal(err)
	}
	after, got := readBench(t, path)

	for _, key := range []string{"service", "mcmm"} {
		if len(before[key]) == 0 || string(after[key]) != string(before[key]) {
			t.Fatalf("%s block did not survive the Table-I write:\nbefore %s\nafter  %s", key, before[key], after[key])
		}
	}
	got.Service, got.MCMM = nil, nil
	if !reflect.DeepEqual(got, run) {
		t.Fatalf("Table-I fields not replaced:\ngot  %+v\nwant %+v", got, run)
	}
}
