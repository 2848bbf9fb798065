// Package eval is the stand-in for the official ICCAD-2015 evaluator: it
// measures early/late WNS and TNS, half-perimeter wirelength, and checks the
// contest's physical constraints (LCB fanout, displacement, die bounds).
package eval

import (
	"fmt"
	"math"

	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// Metrics is one timing/physical snapshot of a design.
type Metrics struct {
	WNSEarly, TNSEarly  float64 // ps
	WNSLate, TNSLate    float64 // ps
	ViolEarly, ViolLate int
	HPWL                float64
}

// TimingSource is the slice of the timing surface Measure reads — both
// *timing.State and any sched.TimingView (e.g. a multi-corner
// timing.CornerSet, whose WNS/TNS are then the worst-case envelope)
// satisfy it.
type TimingSource interface {
	WNSTNS(m timing.Mode) (wns, tns float64)
	ViolatedEndpoints(m timing.Mode, dst []timing.EndpointID) []timing.EndpointID
	Design() *netlist.Design
}

// Measure evaluates the design under the timing source's current state.
func Measure(tm TimingSource) Metrics {
	var m Metrics
	m.WNSEarly, m.TNSEarly = tm.WNSTNS(timing.Early)
	m.WNSLate, m.TNSLate = tm.WNSTNS(timing.Late)
	m.ViolEarly = len(tm.ViolatedEndpoints(timing.Early, nil))
	m.ViolLate = len(tm.ViolatedEndpoints(timing.Late, nil))
	m.HPWL = tm.Design().HPWL()
	return m
}

// HPWLIncreasePct returns the percentage HPWL increase of cur over base.
func HPWLIncreasePct(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// ImprovementPct returns the percentage improvement of a (negative) slack
// metric: 100·(after−before)/|before|. Zero "before" yields zero.
func ImprovementPct(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (after - before) / math.Abs(before) * 100
}

// CheckConstraints verifies the contest-style physical constraints and
// returns every violation found.
func CheckConstraints(d *netlist.Design) []error {
	var errs []error
	if err := d.Validate(); err != nil {
		errs = append(errs, err)
	}
	for _, lcb := range d.LCBs {
		if d.LCBMaxFanout > 0 && d.LCBFanout(lcb) > d.LCBMaxFanout {
			errs = append(errs, fmt.Errorf("eval: LCB %s fanout %d exceeds %d",
				d.Cells[lcb].Name, d.LCBFanout(lcb), d.LCBMaxFanout))
		}
	}
	for i := range d.Cells {
		c := netlist.CellID(i)
		if d.Cells[c].Fixed {
			if d.Cells[c].Pos != d.OrigPos[c] {
				errs = append(errs, fmt.Errorf("eval: fixed cell %s moved", d.Cells[c].Name))
			}
			continue
		}
		if d.MaxDisp > 0 && d.Displacement(c) > d.MaxDisp+1e-9 {
			errs = append(errs, fmt.Errorf("eval: cell %s displaced %.1f > %.1f",
				d.Cells[c].Name, d.Displacement(c), d.MaxDisp))
		}
		if !d.Die.Empty() && !d.Die.Contains(d.Cells[c].Pos) {
			errs = append(errs, fmt.Errorf("eval: cell %s outside die", d.Cells[c].Name))
		}
	}
	return errs
}

// String formats a Metrics row.
func (m Metrics) String() string {
	return fmt.Sprintf("early WNS=%.2fps TNS=%.2fps (#%d) | late WNS=%.3fns TNS=%.3fns (#%d) | HPWL=%.0f",
		m.WNSEarly, m.TNSEarly, m.ViolEarly, m.WNSLate/1000, m.TNSLate/1000, m.ViolLate, m.HPWL)
}
