package opt

import (
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/core"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// BenchmarkReconnect times one LCB–FF reconnection pass over a late
// schedule of superblue1 at scale 0.01, which has more targets than LCBs, so
// the pass decides its trials on the launch→capture model. The schedule is
// computed once; every iteration realizes it on a fresh clone and state,
// built with the timer stopped. It reports the trials (kept and reverted
// reconnections) and the pins propagated per op.
func BenchmarkReconnect(b *testing.B) {
	p, err := bench.Superblue("superblue1", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	d, err := bench.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	res := mustCoreSchedule(b, newTimer(b, d.Clone()), core.Options{Mode: timing.Late})
	n := 0
	for ff, l := range res.Target {
		if l >= 1 && d.LCBofFF(ff) != netlist.NoCell {
			n++
		}
	}
	if !useModel(n, len(d.LCBs)) {
		b.Fatalf("%d targets for %d LCBs: the pass would not use the model", n, len(d.LCBs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var trials, pins int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tm := newTimer(b, d.Clone())
		before := tm.Stats.ForwardPinVisits
		b.StartTimer()
		r := Reconnect(tm, res.Target, ReconnectOptions{})
		trials += int64(r.Reconnected + r.Reverted)
		pins += tm.Stats.ForwardPinVisits - before
	}
	b.ReportMetric(float64(trials)/float64(b.N), "trials/op")
	b.ReportMetric(float64(pins)/float64(b.N), "pins/op")
}
