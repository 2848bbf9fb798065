package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// fullBench is a BENCH file with every block filled, as a Table-I run
// followed by -sessions, -load and -corners merges leaves it.
func fullBench() benchJSON {
	return benchJSON{
		Scale: 0.5, CPUs: 1,
		Rows:      []rowJSON{{Design: "old", Method: "Ours", Edges: 9, StopReason: "stalled"}},
		Micro:     []microJSON{{Name: "old_micro", Iters: 1}},
		Phases:    []iterskew.PhaseStat{{Name: "old_phase", Count: 1}},
		ColdStart: []coldStartJSON{{Design: "old", HashNs: 1}},
		Recompile: []recompileJSON{{Design: "old", FullFallbacks: 2}},
		Sessions: &sessionsJSON{Sessions: 4, TimingNewNs: 1e6, NewStateNs: 5e4, StateSpeedup: 20,
			SerialSec: 0.5, ConcurrentSec: 0.25, JobsPerSec: 16, StatesCreated: 2, Identical: true},
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
}

// writeFull writes fullBench to a fresh file and returns its path and its
// top-level JSON values as written.
func writeFull(t *testing.T) (string, map[string]json.RawMessage) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := mergeBench(path, func(out *benchJSON) { *out = fullBench() }); err != nil {
		t.Fatal(err)
	}
	before, _ := readBench(t, path)
	return path, before
}

// keptBlocks fails unless every key of before other than the replaced ones
// reads the same, byte for byte, in after.
func keptBlocks(t *testing.T, write string, before, after map[string]json.RawMessage, replaced ...string) {
	t.Helper()
	for key, v := range before {
		if slices.Contains(replaced, key) {
			continue
		}
		if string(after[key]) != string(v) {
			t.Errorf("%s block did not survive the %s write:\nbefore %s\nafter  %s", key, write, v, after[key])
		}
	}
}

// TestTableIKeepsMergedBlocks: the Table-I write replaces every field the
// run measures and keeps, byte for byte, the sessions, service and mcmm
// blocks that -sessions, -load and -corners merged into the file.
func TestTableIKeepsMergedBlocks(t *testing.T) {
	path, before := writeFull(t)
	run := benchJSON{
		Scale: 0.01, CPUs: 2,
		Rows:      []rowJSON{{Design: "superblue1", Method: "Ours", Edges: 100, Rounds: 4, StopReason: "converged"}},
		Micro:     []microJSON{{Name: "incremental_update", Iters: 20}},
		ColdStart: []coldStartJSON{{Design: "superblue1", HashNs: 2e6, Identical: true}},
		Recompile: []recompileJSON{{Design: "superblue1", Identical: true}},
	}
	if err := writeTableI(path, run); err != nil {
		t.Fatal(err)
	}
	after, got := readBench(t, path)

	keptBlocks(t, "Table-I", before, after, "scale", "cpus", "rows", "micro", "phases", "cold_start", "recompile")
	got.Sessions, got.Service, got.MCMM = nil, nil, nil
	if !reflect.DeepEqual(got, run) {
		t.Fatalf("Table-I fields not replaced:\ngot  %+v\nwant %+v", got, run)
	}
}

// TestSessionsKeepsMergedBlocks: a -sessions write replaces the sessions
// block and keeps every other block byte for byte.
func TestSessionsKeepsMergedBlocks(t *testing.T) {
	path, before := writeFull(t)
	sj := &sessionsJSON{Sessions: 8, TimingNewNs: 9e6, NewStateNs: 6e5, StateSpeedup: 15,
		SerialSec: 0.125, ConcurrentSec: 0.0625, JobsPerSec: 128, StatesCreated: 1, Identical: true}
	if err := writeSessions(path, sj); err != nil {
		t.Fatal(err)
	}
	after, got := readBench(t, path)

	keptBlocks(t, "sessions", before, after, "sessions")
	if got.Sessions == nil || *got.Sessions != *sj {
		t.Fatalf("sessions block = %+v, want %+v", got.Sessions, sj)
	}
}
