package timing

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"iterskew/internal/netlist"
)

// This file provides the reporting layer found in production timers
// (report_timing / report_qor analogs): worst-path reports with per-pin
// arrival breakdowns, top-K endpoint ranking, and slack histograms.

// PathStep is one pin along a reported path.
type PathStep struct {
	Pin     netlist.PinID
	Cell    netlist.CellID
	Name    string  // cell instance name
	Arrival float64 // arrival time at this pin (mode-specific)
	Incr    float64 // delay increment from the previous step
}

// PathReport describes an endpoint's worst path in one mode.
type PathReport struct {
	Endpoint EndpointID
	Mode     Mode
	Slack    float64
	Arrival  float64 // at the endpoint pin
	Required float64
	Launch   netlist.CellID // launching FF or input port
	Capture  netlist.CellID // endpoint cell
	Steps    []PathStep
}

// ReportPath reconstructs the endpoint's worst path with per-pin timing.
// Returns nil if the endpoint has no arriving path.
func (t *State) ReportPath(e EndpointID, m Mode) *PathReport {
	pins := t.WorstPath(e, m)
	if len(pins) == 0 {
		return nil
	}
	d := t.D
	at := func(p netlist.PinID) float64 {
		if m == Early {
			return t.atMin[p]
		}
		return t.atMax[p]
	}
	r := &PathReport{
		Endpoint: e,
		Mode:     m,
		Slack:    t.Slack(e, m),
		Arrival:  at(pins[len(pins)-1]),
		Launch:   d.Pins[pins[0]].Cell,
		Capture:  t.endpoints[e].Cell,
	}
	rl, re, _ := t.endpointRequired(t.endpoints[e].Pin)
	if m == Early {
		r.Required = re
	} else {
		r.Required = rl
	}
	prev := math.NaN()
	for _, p := range pins {
		cell := d.Pins[p].Cell
		role := "/out"
		if d.Pins[p].Dir == netlist.DirIn {
			role = "/in"
			for k, cp := range d.Cells[cell].Pins {
				if cp == p {
					role = fmt.Sprintf("/in%d", k)
					break
				}
			}
			if d.Cells[cell].Type.Kind == netlist.KindFF && p == d.FFData(cell) {
				role = "/D"
			}
		} else if d.Cells[cell].Type.Kind == netlist.KindFF {
			role = "/Q"
		}
		step := PathStep{
			Pin:     p,
			Cell:    cell,
			Name:    d.Cells[cell].Name + role,
			Arrival: at(p),
		}
		if !math.IsNaN(prev) {
			step.Incr = step.Arrival - prev
		}
		prev = step.Arrival
		r.Steps = append(r.Steps, step)
	}
	return r
}

// Format renders the report in a report_timing-like layout.
func (r *PathReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Path (%s): %s -> %s\n", r.Mode, r.Steps[0].Name, r.Steps[len(r.Steps)-1].Name)
	fmt.Fprintf(&b, "  %-20s %12s %12s\n", "point", "incr(ps)", "arrival(ps)")
	for i, s := range r.Steps {
		if i == 0 {
			fmt.Fprintf(&b, "  %-20s %12s %12.2f\n", s.Name+" (launch)", "-", s.Arrival)
			continue
		}
		fmt.Fprintf(&b, "  %-20s %12.2f %12.2f\n", s.Name, s.Incr, s.Arrival)
	}
	fmt.Fprintf(&b, "  %-20s %12s %12.2f\n", "required", "", r.Required)
	fmt.Fprintf(&b, "  %-20s %12s %12.2f\n", "slack", "", r.Slack)
	return b.String()
}

// WorstPaths returns path reports for the k worst endpoints in the given
// mode, most negative slack first. Endpoints with infinite slack (no
// arriving paths) are skipped.
func (t *State) WorstPaths(m Mode, k int) []*PathReport {
	type es struct {
		e EndpointID
		s float64
	}
	all := make([]es, 0, len(t.endpoints))
	for e := range t.endpoints {
		s := t.Slack(EndpointID(e), m)
		if math.IsInf(s, 0) {
			continue
		}
		all = append(all, es{EndpointID(e), s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].s != all[j].s {
			return all[i].s < all[j].s
		}
		return all[i].e < all[j].e
	})
	if k > len(all) {
		k = len(all)
	}
	reports := make([]*PathReport, 0, k)
	for _, x := range all[:k] {
		if r := t.ReportPath(x.e, m); r != nil {
			reports = append(reports, r)
		}
	}
	return reports
}

// Histogram is a slack distribution.
type Histogram struct {
	BinWidth float64
	Min      float64 // lower edge of Counts[0]
	Counts   []int
	Total    int
	Inf      int // endpoints with no arriving path
}

// SlackHistogram bins the endpoint slacks of the given mode. binWidth must
// be positive.
func (t *State) SlackHistogram(m Mode, binWidth float64) Histogram {
	h := Histogram{BinWidth: binWidth}
	if binWidth <= 0 {
		return h
	}
	var slacks []float64
	for e := range t.endpoints {
		s := t.Slack(EndpointID(e), m)
		if math.IsInf(s, 0) {
			h.Inf++
			continue
		}
		slacks = append(slacks, s)
	}
	if len(slacks) == 0 {
		return h
	}
	lo, hi := slacks[0], slacks[0]
	for _, s := range slacks {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	h.Min = math.Floor(lo/binWidth) * binWidth
	bins := int((hi-h.Min)/binWidth) + 1
	h.Counts = make([]int, bins)
	for _, s := range slacks {
		h.Counts[int((s-h.Min)/binWidth)]++
	}
	h.Total = len(slacks)
	return h
}

// String renders the histogram as ASCII bars.
func (h Histogram) String() string {
	var b strings.Builder
	maxC := 1
	for _, c := range h.Counts {
		if c > maxC {
			maxC = c
		}
	}
	for i, c := range h.Counts {
		lo := h.Min + float64(i)*h.BinWidth
		bar := strings.Repeat("#", c*50/maxC)
		fmt.Fprintf(&b, "[%9.1f,%9.1f) %6d %s\n", lo, lo+h.BinWidth, c, bar)
	}
	if h.Inf > 0 {
		fmt.Fprintf(&b, "(no path)            %6d\n", h.Inf)
	}
	return b.String()
}
