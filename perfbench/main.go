// Command perfbench is the end-to-end benchmark of iterskew. It runs one of
// three workloads over a fleet of the eight Table-I superblue profiles at
// scale 0.01, generated from --seed and handed to the program as netio text:
//
//   - flow: one caller runs iterskew.RunFlow(Ours) back to back;
//   - service: two clients send scheduling jobs to an in-process iterskewd
//     daemon over loopback TCP;
//   - ingest: two clients upload netlists to a daemon whose graph cache is
//     smaller than the fleet, so every design is a miss and then a hit.
//
// With --trace 0 it measures the workload for --seconds, checks every output
// (the flow and service results against the independent oracle) and prints
// the end-to-end metrics. With --trace 1 it runs traced passes of every
// workload, timing each call into a layer from the benchmark's own code, and
// prints the per-layer metrics. README.md gives the reasons and predictions.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload flow --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the line before it records the host, the
// seed, the worker widths and the quality figures. The exit code is 0 only
// when every check passed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// scale shrinks each superblue profile's flip-flop count (0.01 gives
// 10k–28k cells per design).
const scale = 0.01

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median.
const setupRepeats = 3

// workloads names the benchmark's workloads in the order traced runs visit
// the ones not selected by --workload.
var workloads = []string{"flow", "service", "ingest"}

// tailPct is the op_tail_ms percentile of each workload: one that leaves at
// least ten samples beyond it in a 15 s run at the slowest speed seen on the
// 2-vCPU host it was tuned on (4.3 flow ops/s, 100 jobs/s, 32 uploads/s).
// The service's p99 left 16–19 jobs beyond it and moved by a quarter across
// ten seeds; p98 leaves twice as many.
var tailPct = map[string]float64{"flow": 80, "service": 98, "ingest": 97}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// clients is the number of concurrent callers of the service and ingest
	// workloads: two, or fewer on a host with fewer CPUs.
	clients int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line before the result: what was run, where, and the figures
// that are not metrics.
type info struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Scale    float64 `json:"scale"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	Widths   widths  `json:"widths"`

	TailPercentile float64   `json:"tail_percentile,omitempty"`
	Samples        int       `json:"samples,omitempty"`
	SetupSamples   []float64 `json:"setup_s_samples,omitempty"`
	// QoR holds the deterministic quality figures of the checked ops (flow
	// and service): residual late TNS in ns, early TNS in ps, HPWL increase.
	QoR map[string]float64 `json:"qor,omitempty"`
	// Counts holds workload counts that are not metrics: the ingest
	// workload's cache hits and misses in the measured phase.
	Counts map[string]float64 `json:"counts,omitempty"`
	// TraceOverheadPct is the traced run's mean op time over the untraced
	// passes' of the same workload, minus one, in percent.
	TraceOverheadPct *float64 `json:"trace_overhead_pct,omitempty"`
	// StealPct is the share of the host's CPU time the hypervisor took from
	// this VM during the measured phase: time the benchmark waited that no
	// change to the program can win back.
	StealPct  float64  `json:"host_steal_pct"`
	SpansFile string   `json:"spans_file,omitempty"`
	Problems  []string `json:"problems,omitempty"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
}

// widths records every degree of parallelism the run used; none exceeds
// nproc.
type widths struct {
	FlowCallers       int `json:"flow_callers"`
	Clients           int `json:"clients"`
	DaemonMaxInFlight int `json:"daemon_max_in_flight"`
	TimerWorkers      int `json:"timer_workers"`
	CheckWorkers      int `json:"check_workers"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: flow, service or ingest")
	seed := fs.Int64("seed", 1, "workload seed; offsets every profile's generator seed")
	seconds := fs.Float64("seconds", 15, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced passes and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload flow|service|ingest, --seconds > 0 and --trace 0|1")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		clients:  min(2, runtime.NumCPU()),
	}
	res, inf, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range inf.Problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	enc := json.NewEncoder(stdout)
	if err := errors.Join(enc.Encode(inf), enc.Encode(res)); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// execute generates the fleet and runs the configured measurement.
func execute(cfg config) (*result, *info, error) {
	fl, err := makeFleet(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	inf := &info{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Scale:    scale,
		Seconds:  cfg.seconds.Seconds(),
		Trace:    cfg.trace,
		Host:     hostInfo(),
		Widths: widths{
			FlowCallers:       1,
			Clients:           cfg.clients,
			DaemonMaxInFlight: runtime.GOMAXPROCS(0),
			TimerWorkers:      0,
			CheckWorkers:      checkWorkers(),
		},
	}
	if cfg.trace {
		res, err := runTraced(cfg, fl, inf)
		return res, inf, err
	}
	var o *outcome
	switch cfg.workload {
	case "flow":
		o, err = runFlow(cfg, fl)
	case "service":
		o, err = runService(cfg, fl)
	case "ingest":
		o, err = runIngest(cfg, fl)
	}
	if err != nil {
		return nil, nil, err
	}
	inf.TailPercentile = tailPct[cfg.workload]
	inf.Samples = len(o.lat)
	inf.SetupSamples = o.setups
	inf.QoR = o.qor
	inf.Counts = o.counts
	inf.StealPct = o.stealPct
	inf.Problems = o.problems
	return &result{
		Correct:   o.failed == 0 && len(o.problems) == 0 && len(o.lat) > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics(cfg.workload),
	}, inf, nil
}

// checkWorkers is the width of the output checks that run after the
// measured phase.
func checkWorkers() int { return min(2, runtime.NumCPU()) }
