package timing

import (
	"math"
	"sync/atomic"

	"iterskew/internal/netlist"
)

// The launch→capture model. A §IV-A reconnection moves one clock pin: it
// shifts flip-flop latencies and changes no data-arc delay. While no data
// delay changes, the late arrival at an endpoint is the maximum, over its
// launchers u, of latency(u) + D(u, endpoint), and the early arrival the
// minimum, with D the delays ExtractAllInto returns: an extracted launch →
// capture model stays exact while internal delays do not change (Li et al.,
// Timing Model Extraction for Sequential Circuits). A reconnection pass
// therefore builds the model once, decides each trial on the endpoints its
// latency changes reach, and propagates data arrivals with one Update after
// its last trial (undo.go shows the trial). The model sums latency + delay
// in another order than the timer's walk along the path, so its arrivals,
// and the dTNS taken from them, match the timer's only to rounding.

// LaunchDelays is one launcher of a capture vertex with its launch-to-capture
// delays in both modes: Late is the maximum path delay, Early the minimum.
type LaunchDelays struct {
	Launch      netlist.CellID
	Late, Early float64
}

// ExtractAllIntoBoth is ExtractAllInto for both modes in one backward walk
// that carries a late and an early label per pin. It forms the same path
// sums, so each launcher's Late and Early equal, bit for bit, the Delay of
// its ExtractAllInto edge in that mode; only the launchers' order may
// differ. It counts its arcs in Stats.ExtractArcVisits but no edge in
// Stats.ExtractedEdges, which counts the schedulers' sequential graph.
func (t *State) ExtractAllIntoBoth(capture netlist.CellID, dst []LaunchDelays) []LaunchDelays {
	return t.extractAllIntoBoth(&t.early, capture, dst)
}

// earlyLabels holds the early labels of the both-mode walk, per pin (dd)
// and per terminal cell (found); the walk keeps its late labels, stamps and
// stack in the state's traceState.
type earlyLabels struct {
	dd, found []float64
}

func (t *State) extractAllIntoBoth(el *earlyLabels, capture netlist.CellID, dst []LaunchDelays) []LaunchDelays {
	e := t.endpointOf[capture]
	if e == NoEndpoint {
		return dst
	}
	p0 := t.endpoints[e].Pin
	if !t.inData[p0] {
		return dst
	}
	st := &t.trace
	np, nc := len(t.D.Pins), len(t.D.Cells)
	st.reset(np, nc)
	if len(el.dd) < np {
		el.dd = make([]float64, np)
	}
	if len(el.found) < nc {
		el.found = make([]float64, nc)
	}
	st.set(p0, 0)
	el.dd[p0] = 0
	st.stack = append(st.stack, p0)

	for len(st.stack) > 0 {
		p := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		late, early := st.dd[p], el.dd[p]
		arcs := t.faninArcs(p)
		if len(arcs) == 0 {
			if _, _, isSrc := t.sourceArrival(p); isSrc {
				c := t.D.Pins[p].Cell
				if st.foundStamp[c] != st.cur {
					el.found[c] = early
				} else if early < el.found[c] {
					el.found[c] = early
				}
				st.note(c, late, true)
			}
			continue
		}
		t.Stats.ExtractArcVisits += int64(len(arcs))
		ad := t.dIn[p] // shared by every fanin arc
		adL, adE := ad*t.dLate, ad*t.dEarly
		for _, a := range arcs {
			q := a.To
			nl, ne := late+adL, early+adE
			if st.stamp[q] != st.cur {
				st.set(q, nl)
				el.dd[q] = ne
			} else {
				up := false
				if nl > st.dd[q] {
					st.dd[q], up = nl, true
				}
				if ne < el.dd[q] {
					el.dd[q], up = ne, true
				}
				if !up {
					continue // dominated in both modes
				}
			}
			st.stack = append(st.stack, q)
		}
	}

	for _, launch := range st.foundList {
		dst = append(dst, LaunchDelays{
			Launch: launch,
			Late:   t.launchDelay(launch, Late) + st.foundVal[launch],
			Early:  t.launchDelay(launch, Early) + el.found[launch],
		})
	}
	return dst
}

// LaunchModel is a state's launch→capture model. For every endpoint it
// lists the flip-flops that launch to it with their late and early delays,
// and folds its input-port launchers into one late and one early arrival;
// per flip-flop it lists the endpoints the flip-flop launches to. It also
// keeps each endpoint's capture latency and modeled arrivals as of its
// build or last Fold.
type LaunchModel struct {
	t *State

	// Endpoint e's flip-flop launchers are entries off[e] to off[e+1]:
	// FF index ff[k], delays late[k] and early[k].
	off         []int32
	ff          []int32
	late, early []float64
	// Per endpoint: its input ports' latest and earliest arrival (−Inf and
	// +Inf without one).
	portLate, portEarly []float64

	// The endpoints FF index i launches to: fan[fanOff[i]:fanOff[i+1]].
	fanOff []int32
	fan    []EndpointID

	cur []epTimes // per endpoint, as of the build or last Fold

	// The last SlackDelta's endpoints, marked with epoch, and their values.
	mark    []uint32
	epoch   uint32
	touched []EndpointID
	now     []epTimes

	// Build scratch: the walks' early labels and one endpoint's launchers.
	labels earlyLabels
	buf    []LaunchDelays
}

// spareModel holds the last released model, so that the next build, on
// whichever state, reuses its buffers instead of allocating them: a flow
// compiles a new state per design and builds one model per run. It keeps at
// most one model, sized by the largest design it has served. A sync.Pool
// would not do: it empties at the second GC and parks an object in one P's
// private slot, where a build on another P misses it, so a caller that
// collects between designs, as the flow benchmark does, would rebuild the
// buffers on most passes.
var spareModel atomic.Pointer[LaunchModel]

// LaunchModel builds the launch→capture model of the state's current arc
// delays and latencies, with one ExtractAllIntoBoth walk per endpoint, and
// returns it. Build it with no DirtyCell change pending, since it reads the
// delays the last Update derived; it stays valid until a data-arc delay
// changes (a moved or resized cell). Release it when the pass ends.
func (t *State) LaunchModel() *LaunchModel {
	m := spareModel.Swap(nil)
	if m == nil {
		m = new(LaunchModel)
	}
	m.t = t
	ne, nff := len(t.endpoints), len(t.D.FFs)
	m.off = append(m.off[:0], 0)
	m.ff, m.late, m.early = m.ff[:0], m.late[:0], m.early[:0]
	m.portLate, m.portEarly = m.portLate[:0], m.portEarly[:0]
	for e := range t.endpoints {
		pl, pe := math.Inf(-1), math.Inf(1)
		m.buf = t.extractAllIntoBoth(&m.labels, t.endpoints[e].Cell, m.buf[:0])
		for _, l := range m.buf {
			if fi := t.ffIdx[l.Launch]; fi >= 0 {
				m.ff = append(m.ff, fi)
				m.late = append(m.late, l.Late)
				m.early = append(m.early, l.Early)
				continue
			}
			// An input port launches at PortLatency (see EdgeSlack).
			if a := t.D.PortLatency + l.Late; a > pl {
				pl = a
			}
			if a := t.D.PortLatency + l.Early; a < pe {
				pe = a
			}
		}
		m.off = append(m.off, int32(len(m.ff)))
		m.portLate = append(m.portLate, pl)
		m.portEarly = append(m.portEarly, pe)
	}

	// Transpose: count each flip-flop's entries, take prefix sums, fill with
	// fanOff[i] as flip-flop i's cursor, then shift the ends back to starts.
	m.fanOff = append(m.fanOff[:0], make([]int32, nff+1)...)
	for _, i := range m.ff {
		m.fanOff[i+1]++
	}
	for i := 0; i < nff; i++ {
		m.fanOff[i+1] += m.fanOff[i]
	}
	m.fan = append(m.fan[:0], make([]EndpointID, len(m.ff))...)
	for e := 0; e < ne; e++ {
		for _, i := range m.ff[m.off[e]:m.off[e+1]] {
			m.fan[m.fanOff[i]] = EndpointID(e)
			m.fanOff[i]++
		}
	}
	copy(m.fanOff[1:], m.fanOff[:nff])
	m.fanOff[0] = 0

	m.cur = m.cur[:0]
	for e := 0; e < ne; e++ {
		m.cur = append(m.cur, m.eval(EndpointID(e)))
	}
	if len(m.mark) != ne {
		m.mark = make([]uint32, ne)
		m.epoch = 0
	}
	m.touched, m.now = m.touched[:0], m.now[:0]
	return m
}

// eval returns endpoint e's capture latency and modeled arrivals under the
// state's current latencies.
func (m *LaunchModel) eval(e EndpointID) epTimes {
	t := m.t
	v := epTimes{atMax: m.portLate[e], atMin: m.portEarly[e]}
	for k := m.off[e]; k < m.off[e+1]; k++ {
		i := m.ff[k]
		l := t.baseLat[i] + t.extraLat[i]
		if a := l + m.late[k]; a > v.atMax {
			v.atMax = a
		}
		if a := l + m.early[k]; a < v.atMin {
			v.atMin = a
		}
	}
	if ep := &t.endpoints[e]; !ep.IsPort {
		v.lat = t.Latency(ep.Cell)
	}
	return v
}

// SlackDelta returns, for the open checkpoint's latency changes, the change
// in each mode's TNS, indexed by Mode, as State.SlackDelta defines it, but
// evaluated on the model: old slacks come from the model's values, new ones
// from the model under the current latencies. It visits only the endpoints
// whose capture latency the checkpoint logged and the endpoints a flip-flop
// with a logged latency launches to, so it needs no Update: RetimeClock is
// enough. Call Fold if the trial is kept. With no checkpoint open it
// returns zeros.
func (m *LaunchModel) SlackDelta() (dTNS [2]float64) {
	t := m.t
	m.touched, m.now = m.touched[:0], m.now[:0]
	m.epoch++
	if m.epoch == 0 {
		clear(m.mark)
		m.epoch = 1
	}
	for i := range t.undo.lat {
		fi := t.undo.lat[i].fi
		if ep := t.endpointOf[t.D.FFs[fi]]; ep != NoEndpoint {
			m.touch(ep)
		}
		for _, ep := range m.fan[m.fanOff[fi]:m.fanOff[fi+1]] {
			m.touch(ep)
		}
	}
	for _, ep := range m.touched {
		now := m.eval(ep)
		m.now = append(m.now, now)
		was, is := t.slackWith(ep, m.cur[ep]), t.slackWith(ep, now)
		for md := range is {
			if math.Float64bits(was[md]) != math.Float64bits(is[md]) {
				dTNS[md] += negPart(is[md]) - negPart(was[md])
			}
		}
	}
	return dTNS
}

// touch adds ep to the current SlackDelta call's endpoints.
func (m *LaunchModel) touch(ep EndpointID) {
	if m.mark[ep] != m.epoch {
		m.mark[ep] = m.epoch
		m.touched = append(m.touched, ep)
	}
}

// Fold makes the endpoint values the last SlackDelta evaluated the model's
// own: call it after committing that trial, never after a Rollback.
func (m *LaunchModel) Fold() {
	for i, ep := range m.touched {
		m.cur[ep] = m.now[i]
	}
	m.touched, m.now = m.touched[:0], m.now[:0]
}

// Release hands the model's buffers to the next build; m must not be used
// afterwards.
func (m *LaunchModel) Release() {
	m.t = nil
	spareModel.Store(m)
}
