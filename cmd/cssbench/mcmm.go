package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"iterskew"
	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/netio"
	"iterskew/internal/oracle"
	"iterskew/internal/sched"
	"iterskew/internal/serve"
	"iterskew/internal/timing"
)

// mcmmTol mirrors the MCMM acceptance gate: LP-oracle slacks within 1e-6 ps
// of zero count as met.
const mcmmTol = 1e-6

// mcmmJSON records the -corners multi-corner benchmark/smoke: the cost of
// scheduling the worst-case envelope over N corners relative to a
// single-corner run, plus the per-corner LP-oracle verdict on the one shared
// latency assignment.
type mcmmJSON struct {
	Design  string `json:"design"`
	Corners int    `json:"corners"`
	// Service is set when the numbers came from a live iterskewd daemon
	// (-serveaddr) rather than an in-process run.
	Service bool `json:"via_service,omitempty"`
	// SingleSec / MultiSec schedule the same design in Early mode with one
	// corner vs all N; the ratio is the price of multi-corner propagation.
	SingleSec float64 `json:"single_corner_schedule_s"`
	MultiSec  float64 `json:"multi_corner_schedule_s"`
	CostRatio float64 `json:"multi_over_single"`
	// DiffRounds counts extraction rounds where the corners disagreed on the
	// essential edge set; zero would mean the corner spread never exercised
	// the union path.
	DiffRounds  int     `json:"union_diff_rounds"`
	EnvelopeWNS float64 `json:"envelope_wns_early_ps"`
	// BindingCorner is the corner with the smallest oracle hold slack under
	// the shared assignment.
	BindingCorner string  `json:"binding_corner"`
	BindingSlack  float64 `json:"binding_hold_slack_ps"`
	// OracleOK: every corner's LP-oracle hold worst slack is >= -tol under
	// the one shared assignment, and no corner's setup worst slack dropped
	// below its unscheduled floor.
	OracleOK bool             `json:"oracle_ok_all_corners"`
	Rows     []mcmmCornerJSON `json:"per_corner"`
}

// mcmmCornerJSON is one corner's slice of the MCMM block: the scheduler's
// own post-schedule QoR plus the independent oracle numbers.
type mcmmCornerJSON struct {
	Name          string  `json:"name"`
	PeriodPS      float64 `json:"period_ps"`
	DerateEarly   float64 `json:"derate_early,omitempty"`
	DerateLate    float64 `json:"derate_late,omitempty"`
	WNSEarlyPS    float64 `json:"wns_early_ps"`
	TNSEarlyPS    float64 `json:"tns_early_ps"`
	HoldWS        float64 `json:"oracle_hold_worst_slack_ps"`
	SetupWSBefore float64 `json:"oracle_setup_ws_before_ps"`
	SetupWSAfter  float64 `json:"oracle_setup_ws_after_ps"`
}

// mcmmCorners builds the N-corner spread: corner 0 is the typical corner at
// the design period, odd corners tighten the hold side (smaller
// DerateEarly), even corners relax the period while still derating early
// paths. No corner tightens the setup side of the typical corner — the
// unscheduled superblue designs are setup-critical at their own period, so a
// setup-tighter corner would (correctly) clamp hold fixes via the Eq-11
// envelope and block full recovery.
func mcmmCorners(period float64, n int) []timing.Corner {
	out := make([]timing.Corner, n)
	out[0] = timing.Corner{Name: "typ", Period: period}
	for i := 1; i < n; i++ {
		if i%2 == 1 {
			de := 0.9 - 0.04*float64((i+1)/2)
			if de < 0.5 {
				de = 0.5
			}
			out[i] = timing.Corner{Name: fmt.Sprintf("fast%d", (i+1)/2), Period: period, DerateEarly: de}
		} else {
			out[i] = timing.Corner{
				Name:        fmt.Sprintf("relaxed%d", i/2),
				Period:      period * (1 + 0.08*float64(i/2)),
				DerateEarly: 0.9,
			}
		}
	}
	return out
}

// runMCMM is the -corners mode: schedule the first selected design against
// an N-corner spread (in process, or via a live daemon when -serveaddr is
// set), verify the single returned assignment against one LP-oracle graph
// per corner, and merge an "mcmm" block into the -json output. A failed
// oracle check or a spread that never diverged exits non-zero — the
// mcmm-smoke CI target relies on that.
func runMCMM(designs string, scale float64, n int, serveAddr, jsonPath string) error {
	if n < 2 {
		return fmt.Errorf("-corners needs at least 2 corners (got %d)", n)
	}
	name := iterskew.SuperblueNames()[0]
	if designs != "all" {
		name = strings.TrimSpace(strings.Split(designs, ",")[0])
	}
	p, err := iterskew.SuperblueProfile(name, scale)
	if err != nil {
		return err
	}
	d, err := iterskew.GenerateBenchmark(p)
	if err != nil {
		return err
	}
	st := d.Stats()
	corners := mcmmCorners(d.Period, n)
	mj := &mcmmJSON{Design: name, Corners: n}

	fmt.Printf("mcmm benchmark: %s scale %g (cells=%d ffs=%d, T=%.0fps), %d corners\n",
		name, scale, st.Cells, st.FFs, d.Period, n)

	var target map[iterskew.CellID]float64
	if serveAddr != "" {
		mj.Service = true
		target, err = mcmmServiceRun(serveAddr, d, corners, mj)
	} else {
		target, err = mcmmLocalRun(d, corners, mj)
	}
	if err != nil {
		return err
	}
	mj.CostRatio = ratio(mj.MultiSec, mj.SingleSec)
	fmt.Printf("  schedule: single-corner %.3fs, %d-corner %.3fs (%.2fx), union diff rounds %d, envelope WNS %.3f ps\n",
		mj.SingleSec, n, mj.MultiSec, mj.CostRatio, mj.DiffRounds, mj.EnvelopeWNS)

	// Independent verdict: one LP-oracle graph per corner, the single shared
	// assignment evaluated under each.
	mj.OracleOK = true
	mj.BindingSlack = math.Inf(1)
	for i, c := range corners {
		og, err := oracle.ExtractAt(d, delay.Default(), c.Period, c.DerateEarly, c.DerateLate)
		if err != nil {
			return fmt.Errorf("oracle corner %s: %w", c.Name, err)
		}
		row := &mj.Rows[i]
		row.HoldWS = og.WorstSlack(false, target)
		row.SetupWSBefore = og.WorstSlack(true, nil)
		row.SetupWSAfter = og.WorstSlack(true, target)
		if row.HoldWS < mj.BindingSlack {
			mj.BindingCorner, mj.BindingSlack = c.Name, row.HoldWS
		}
		if row.HoldWS < -mcmmTol {
			mj.OracleOK = false
			fmt.Fprintf(os.Stderr, "corner %s: oracle hold worst slack %g after scheduling\n", c.Name, row.HoldWS)
		}
		if row.SetupWSAfter < math.Min(row.SetupWSBefore, 0)-mcmmTol {
			mj.OracleOK = false
			fmt.Fprintf(os.Stderr, "corner %s: setup worst slack degraded %g -> %g\n",
				c.Name, row.SetupWSBefore, row.SetupWSAfter)
		}
		fmt.Printf("  corner %-10s T=%7.1fps dE=%.2f dL=%.2f | scheduler WNS %10.3f | oracle hold ws %12.6f\n",
			c.Name, row.PeriodPS, c.DerateEarly, c.DerateLate, row.WNSEarlyPS, row.HoldWS)
	}
	fmt.Printf("  binding corner %s (hold worst slack %g), oracle ok=%v\n",
		mj.BindingCorner, mj.BindingSlack, mj.OracleOK)

	if jsonPath != "" {
		if err := mergeBench(jsonPath, func(out *benchJSON) { out.MCMM = mj }); err != nil {
			return err
		}
		fmt.Printf("merged mcmm block into %s\n", jsonPath)
	}
	if mj.DiffRounds < 1 {
		return fmt.Errorf("union extraction never diverged across corners (diff rounds = 0); the corner spread did no multi-corner work")
	}
	if !mj.OracleOK {
		return fmt.Errorf("LP oracle rejected the multi-corner schedule")
	}
	fmt.Println("  one latency assignment meets every corner per the LP oracle")
	return nil
}

// mcmmLocalRun schedules in process: a single-corner baseline on a pooled
// state, then the full N-corner CornerSet over the same compiled graph.
func mcmmLocalRun(d *iterskew.Design, corners []timing.Corner, mj *mcmmJSON) (map[iterskew.CellID]float64, error) {
	g, err := timing.Compile(d, delay.Default())
	if err != nil {
		return nil, err
	}

	single := g.NewState()
	start := time.Now()
	if _, err := core.Schedule(single, sched.Options{Mode: timing.Early}); err != nil {
		return nil, err
	}
	mj.SingleSec = time.Since(start).Seconds()

	cs, err := timing.NewCornerSet(g, corners)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	res, err := core.Schedule(cs, sched.Options{Mode: timing.Early})
	if err != nil {
		return nil, err
	}
	mj.MultiSec = time.Since(start).Seconds()
	mj.DiffRounds = cs.UnionDiffRounds()
	mj.EnvelopeWNS, _ = cs.WNSTNS(timing.Early)
	for i, c := range corners {
		we, te := cs.CornerWNSTNS(i, timing.Early)
		mj.Rows = append(mj.Rows, mcmmCornerJSON{
			Name: c.Name, PeriodPS: c.Period,
			DerateEarly: c.DerateEarly, DerateLate: c.DerateLate,
			WNSEarlyPS: we, TNSEarlyPS: te,
		})
	}
	return res.Target, nil
}

// mcmmServiceRun drives a live daemon: upload the design once, time a plain
// job and the N-corner job, and take the per-corner QoR breakdown from the
// wire response.
func mcmmServiceRun(addr string, d *iterskew.Design, corners []timing.Corner, mj *mcmmJSON) (map[iterskew.CellID]float64, error) {
	addr = strings.TrimRight(addr, "/")
	var netBuf bytes.Buffer
	if err := netio.Write(&netBuf, d); err != nil {
		return nil, err
	}
	client := &http.Client{}
	var sink serviceJSON // postWithRetry's 429 accounting; only retries matter here
	mu := new(sync.Mutex)

	body, _, err := postWithRetry(client, addr+"/v1/graphs", "text/plain", netBuf.Bytes(), &sink, mu)
	if err != nil {
		return nil, fmt.Errorf("upload: %w", err)
	}
	var up serve.UploadResponse
	if err := json.Unmarshal(body, &up); err != nil {
		return nil, fmt.Errorf("upload response: %w", err)
	}
	fmt.Printf("  uploaded to %s, handle %s...\n", addr, up.Handle[:12])

	plain, _ := json.Marshal(serve.JobSpec{})
	jobsURL := addr + "/v1/graphs/" + up.Handle + "/jobs"
	start := time.Now()
	if _, _, err := postWithRetry(client, jobsURL, "application/json", plain, &sink, mu); err != nil {
		return nil, fmt.Errorf("single-corner job: %w", err)
	}
	mj.SingleSec = time.Since(start).Seconds()

	spec := serve.JobSpec{Corners: make([]serve.CornerSpec, len(corners))}
	for i, c := range corners {
		cspec := serve.CornerSpec{Name: c.Name, PeriodPS: c.Period}
		if c.DerateEarly != 0 {
			v := c.DerateEarly
			cspec.DerateEarly = &v
		}
		if c.DerateLate != 0 {
			v := c.DerateLate
			cspec.DerateLate = &v
		}
		spec.Corners[i] = cspec
	}
	specBody, _ := json.Marshal(spec)
	start = time.Now()
	body, _, err = postWithRetry(client, jobsURL, "application/json", specBody, &sink, mu)
	if err != nil {
		return nil, fmt.Errorf("corner job: %w", err)
	}
	mj.MultiSec = time.Since(start).Seconds()

	var jr serve.JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		return nil, fmt.Errorf("corner job response: %w", err)
	}
	if len(jr.Corners) != len(corners) {
		return nil, fmt.Errorf("daemon returned %d corner rows, want %d", len(jr.Corners), len(corners))
	}
	mj.DiffRounds = jr.CornerDiffRounds
	mj.EnvelopeWNS = jr.WNSEarlyPS
	for i, cr := range jr.Corners {
		if cr.Name != corners[i].Name {
			return nil, fmt.Errorf("corner %d named %q on the wire, want %q", i, cr.Name, corners[i].Name)
		}
		mj.Rows = append(mj.Rows, mcmmCornerJSON{
			Name: cr.Name, PeriodPS: cr.PeriodPS,
			DerateEarly: corners[i].DerateEarly, DerateLate: corners[i].DerateLate,
			WNSEarlyPS: cr.WNSEarlyPS, TNSEarlyPS: cr.TNSEarlyPS,
		})
	}
	return jr.TargetCells()
}
