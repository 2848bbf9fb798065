package timing

import (
	"fmt"
	"math"
	"strings"

	"iterskew/internal/netlist"
)

// QoR is a quality-of-results summary (the report_qor analog): the headline
// numbers a designer checks after every optimization step.
type QoR struct {
	WNSEarly, TNSEarly  float64
	WNSLate, TNSLate    float64
	ViolEarly, ViolLate int
	Endpoints           int

	HPWL      float64
	CombCells int
	FFs       int
	LCBs      int

	// Clock tree statistics.
	MinLatency, MaxLatency, MeanLatency float64 // over flip-flops
	MaxLCBFanout                        int
}

// ReportQoR gathers the summary under the timer's current state.
func (t *State) ReportQoR() QoR {
	d := t.D
	q := QoR{Endpoints: len(t.endpoints), HPWL: d.HPWL(), FFs: len(d.FFs), LCBs: len(d.LCBs)}
	q.WNSEarly, q.TNSEarly = t.WNSTNS(Early)
	q.WNSLate, q.TNSLate = t.WNSTNS(Late)
	q.ViolEarly = len(t.ViolatedEndpoints(Early, nil))
	q.ViolLate = len(t.ViolatedEndpoints(Late, nil))
	for i := range d.Cells {
		if d.Cells[i].Type.Kind == netlist.KindComb {
			q.CombCells++
		}
	}
	q.MinLatency = math.Inf(1)
	q.MaxLatency = math.Inf(-1)
	var sum float64
	for _, ff := range d.FFs {
		l := t.Latency(ff)
		if l < q.MinLatency {
			q.MinLatency = l
		}
		if l > q.MaxLatency {
			q.MaxLatency = l
		}
		sum += l
	}
	if len(d.FFs) > 0 {
		q.MeanLatency = sum / float64(len(d.FFs))
	} else {
		q.MinLatency, q.MaxLatency = 0, 0
	}
	for _, l := range d.LCBs {
		if f := d.LCBFanout(l); f > q.MaxLCBFanout {
			q.MaxLCBFanout = f
		}
	}
	return q
}

// String renders the summary as a compact block.
func (q QoR) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "QoR: %d endpoints (%d comb cells, %d FFs, %d LCBs)\n",
		q.Endpoints, q.CombCells, q.FFs, q.LCBs)
	fmt.Fprintf(&b, "  late : WNS %10.2f ps  TNS %12.2f ps  (%d violating)\n", q.WNSLate, q.TNSLate, q.ViolLate)
	fmt.Fprintf(&b, "  early: WNS %10.2f ps  TNS %12.2f ps  (%d violating)\n", q.WNSEarly, q.TNSEarly, q.ViolEarly)
	fmt.Fprintf(&b, "  clock: latency [%.1f, %.1f] mean %.1f ps, max LCB fanout %d\n",
		q.MinLatency, q.MaxLatency, q.MeanLatency, q.MaxLCBFanout)
	fmt.Fprintf(&b, "  HPWL : %.0f\n", q.HPWL)
	return b.String()
}
