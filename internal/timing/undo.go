package timing

import (
	"math"

	"iterskew/internal/netlist"
)

// Trial discipline. The §IV techniques try one physical change at a time and
// keep it only if timing says so. A trial is
//
//	Checkpoint → mutate the design, DirtyCell → Update → SlackDelta → Commit
//
// or, on rejection, revert the design and Rollback. While a checkpoint is
// open, every write Update makes to the analysis state first appends the old
// value to an undo log: arrival and required times once per level bucket
// (never per pin inside evalArrival/evalRequired, and on the serial and the
// worker path alike, so the worker pool never touches the log), and net
// loads and clock latencies at their writers; the two-word clock-input
// cache is saved whole at Checkpoint. Rollback replays the log backwards in
// O(log length), so a rejected trial costs no second propagation, and
// SlackDelta reads the same log, so an accept/reject decision never scans
// every endpoint.
//
// Stats and recorder counters count work done; they are never rolled back.

// undoLog is the open checkpoint's record of overwritten analysis values.
type undoLog struct {
	open bool
	at   []pinTimes   // old (atMin, atMax) per arrival write
	req  []pinTimes   // old (reqMin, reqMax) per required write
	load []netLoadOld // old net-load cache entries
	lat  []latOld     // old (base, extra) latency per FF write

	// Clock-input cache at Checkpoint.
	clkIn   float64
	clkInOK bool

	// SlackDelta scratch, indexed by endpoint; mark[e] == epoch means e is
	// in touched for the current call.
	mark    []uint32
	epoch   uint32
	old     []epOld
	touched []EndpointID
}

type pinTimes struct {
	p      netlist.PinID
	lo, hi float64
}

type netLoadOld struct {
	n     netlist.NetID
	load  float64
	dirty bool
}

type latOld struct {
	fi          int32
	base, extra float64
}

// epOld is an endpoint's pre-checkpoint capture latency and arrivals.
type epOld struct {
	lat, atMin, atMax float64
}

// close discards the log, keeping its buffers for the next checkpoint.
func (u *undoLog) close() {
	u.open = false
	u.at, u.req = u.at[:0], u.req[:0]
	u.load, u.lat = u.load[:0], u.lat[:0]
}

// Checkpoint opens an undo log: from here on every analysis value that
// Update (or SetExtraLatency/AddExtraLatency) overwrites is recorded, until
// Commit or Rollback closes the log. One checkpoint may be open at a time;
// opening a second one panics. The state should be settled (no changes
// queued since the last Update): Rollback empties the dirty queues, so a
// change queued before the checkpoint would be lost.
func (t *State) Checkpoint() {
	if t.undo.open {
		panic("timing: Checkpoint with a checkpoint already open")
	}
	t.undo.open = true
	t.undo.clkIn, t.undo.clkInOK = t.clkIn, t.clkInOK
}

// Commit keeps every change made since Checkpoint and closes the log. It is
// a no-op when no checkpoint is open.
func (t *State) Commit() { t.undo.close() }

// Rollback restores every arrival time, required time, clock latency and
// cached net load to its value at Checkpoint, bit for bit, empties the
// dirty queues and closes the log. The caller reverts the design itself
// (MovePinToNet, MoveCell or SwapType back) and then calls Rollback instead
// of DirtyCell and Update. It is a no-op when no checkpoint is open.
func (t *State) Rollback() {
	u := &t.undo
	if !u.open {
		return
	}
	for i := len(u.at) - 1; i >= 0; i-- {
		e := &u.at[i]
		t.atMin[e.p], t.atMax[e.p] = e.lo, e.hi
	}
	for i := len(u.req) - 1; i >= 0; i-- {
		e := &u.req[i]
		t.reqMin[e.p], t.reqMax[e.p] = e.lo, e.hi
	}
	for i := len(u.load) - 1; i >= 0; i-- {
		e := &u.load[i]
		t.netLoad[e.n], t.netDirty[e.n] = e.load, e.dirty
	}
	for i := len(u.lat) - 1; i >= 0; i-- {
		e := &u.lat[i]
		t.baseLat[e.fi], t.extraLat[e.fi] = e.base, e.extra
	}
	t.clkIn, t.clkInOK = u.clkIn, u.clkInOK
	t.clearDirty()
	t.clearWorklists()
	u.close()
}

// SlackDelta summarizes what the open checkpoint did to the endpoint slacks
// in mode m; call it after the trial's Update. It reads the undo log alone,
// visiting only the endpoints whose arrival or capture latency was logged,
// and takes old slacks from the logged values and new ones from the current
// state. dTNS is Σ(min(new,0) − min(old,0)) — the change in WNSTNS's TNS,
// summed over fewer terms — and worst is the minimum new slack among the
// endpoints whose slack changed (+Inf if none). Every other endpoint keeps
// its slack bit for bit, so "WNS after ≥ g" holds exactly when worst ≥ g,
// for any g ≤ min(0, WNS before). With no checkpoint open it returns
// (0, +Inf).
func (t *State) SlackDelta(m Mode) (dTNS, worst float64) {
	u := &t.undo
	worst = math.Inf(1)
	if len(u.at) == 0 && len(u.lat) == 0 {
		return 0, worst
	}
	if len(u.mark) != len(t.endpoints) {
		u.mark = make([]uint32, len(t.endpoints))
		u.old = make([]epOld, len(t.endpoints))
	}
	u.epoch++
	if u.epoch == 0 {
		clear(u.mark)
		u.epoch = 1
	}
	u.touched = u.touched[:0]
	// Walk each log backwards: an endpoint's earliest entry comes last and
	// wins, leaving its value from before the checkpoint.
	for i := len(u.lat) - 1; i >= 0; i-- {
		e := &u.lat[i]
		if ep := t.endpointOf[t.D.FFs[e.fi]]; ep != NoEndpoint {
			t.touchEndpoint(ep)
			u.old[ep].lat = e.base + e.extra
		}
	}
	for i := len(u.at) - 1; i >= 0; i-- {
		e := &u.at[i]
		ep := t.endpointOf[t.D.Pins[e.p].Cell]
		if ep == NoEndpoint || t.endpoints[ep].Pin != e.p {
			continue
		}
		t.touchEndpoint(ep)
		u.old[ep].atMin, u.old[ep].atMax = e.lo, e.hi
	}
	for _, ep := range u.touched {
		o := &u.old[ep]
		was := t.slackWith(ep, m, o.lat, o.atMin, o.atMax)
		now := t.Slack(ep, m)
		if math.Float64bits(was) == math.Float64bits(now) {
			continue
		}
		dTNS += negPart(now) - negPart(was)
		if now < worst {
			worst = now
		}
	}
	return dTNS, worst
}

// negPart is min(s, 0), counted the way WNSTNS counts a violation.
func negPart(s float64) float64 {
	if s < 0 {
		return s
	}
	return 0
}

// touchEndpoint adds ep to the current SlackDelta call's endpoint set,
// seeding its old values with the current ones.
func (t *State) touchEndpoint(ep EndpointID) {
	u := &t.undo
	if u.mark[ep] == u.epoch {
		return
	}
	u.mark[ep] = u.epoch
	u.touched = append(u.touched, ep)
	p := t.endpoints[ep].Pin
	o := &u.old[ep]
	o.atMin, o.atMax = t.atMin[p], t.atMax[p]
	if !t.endpoints[ep].IsPort {
		o.lat = t.Latency(t.endpoints[ep].Cell)
	}
}

// logTimes appends the current (lo, hi) of every pin in bucket to dst.
func logTimes(dst []pinTimes, bucket []netlist.PinID, lo, hi []float64) []pinTimes {
	for _, p := range bucket {
		dst = append(dst, pinTimes{p: p, lo: lo[p], hi: hi[p]})
	}
	return dst
}

// logLoad records net n's cache entry before it is overwritten.
func (t *State) logLoad(n netlist.NetID) {
	if t.undo.open {
		t.undo.load = append(t.undo.load, netLoadOld{n: n, load: t.netLoad[n], dirty: t.netDirty[n]})
	}
}

// logLat records FF index fi's latencies before either is overwritten.
func (t *State) logLat(fi int32) {
	if t.undo.open {
		t.undo.lat = append(t.undo.lat, latOld{fi: fi, base: t.baseLat[fi], extra: t.extraLat[fi]})
	}
}
