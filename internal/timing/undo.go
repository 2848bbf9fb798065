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
// value to an undo log: arrival times once per level bucket (never per pin
// inside evalArrival), and arc delays and clock latencies at their writers;
// the two-word clock-input cache is saved whole at
// Checkpoint. Rollback replays the log backwards in O(log length), so a
// rejected trial costs no second propagation, and SlackDelta reads the same
// log, so an accept/reject decision never scans every endpoint.
//
// Required times need no log: Update only queues backward seeds, and a
// required-time read inside a trial panics. Checkpoint records each backward
// bucket's length instead, and Rollback cuts the buckets back to it, so the
// seeds of committed trials stay queued for the next read.
//
// Stats and recorder counters count work done; they are never rolled back.

// undoLog is the open checkpoint's record of overwritten analysis values.
type undoLog struct {
	open bool
	at   []pinTimes // old (atMin, atMax) per arrival write
	dIn  []dInOld   // old arc-delay entries
	lat  []latOld   // old (base, extra) latency per FF write

	// Clock-input cache at Checkpoint.
	clkIn   float64
	clkInOK bool

	// Backward bucket lengths and reqStale at Checkpoint.
	bwdLen   []int32
	reqStale bool

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

type dInOld struct {
	p netlist.PinID
	v float64
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
	u.at = u.at[:0]
	u.dIn, u.lat = u.dIn[:0], u.lat[:0]
}

// Checkpoint opens an undo log: from here on every analysis value that
// Update (or SetExtraLatency/AddExtraLatency) overwrites is recorded, until
// Commit or Rollback closes the log. It also records the length of each
// backward bucket, so Rollback drops exactly the seeds the trial queued.
// One checkpoint may be open at a time; opening a second one panics, and
// so does a required-time read (LaunchLateSlack, LaunchEarlySlack) before
// the log closes. The state should be settled (no changes queued since the
// last Update): Rollback empties the dirty queues, so a change queued
// before the checkpoint would be lost.
func (t *State) Checkpoint() {
	u := &t.undo
	if u.open {
		panic("timing: Checkpoint with a checkpoint already open")
	}
	u.open = true
	u.clkIn, u.clkInOK = t.clkIn, t.clkInOK
	u.bwdLen = u.bwdLen[:0]
	for _, bucket := range t.bwdBuckets {
		u.bwdLen = append(u.bwdLen, int32(len(bucket)))
	}
	u.reqStale = t.reqStale
}

// Commit keeps every change made since Checkpoint and closes the log. It is
// a no-op when no checkpoint is open.
func (t *State) Commit() { t.undo.close() }

// Rollback restores every arrival time, clock latency and arc delay to its
// value at Checkpoint, bit for bit, empties the dirty queues and the
// forward buckets, cuts the backward buckets back to their lengths at
// Checkpoint (required times are never written inside a trial, so the
// seeds queued before it, committed trials' included, stay queued), and
// closes the log. The caller reverts the design itself (MovePinToNet,
// MoveCell or SwapType back) and then calls Rollback instead of DirtyCell
// and Update. It is a no-op when no checkpoint is open.
func (t *State) Rollback() {
	u := &t.undo
	if !u.open {
		return
	}
	for i := len(u.at) - 1; i >= 0; i-- {
		e := &u.at[i]
		t.atMin[e.p], t.atMax[e.p] = e.lo, e.hi
	}
	for i := len(u.dIn) - 1; i >= 0; i-- {
		e := &u.dIn[i]
		t.dIn[e.p] = e.v
	}
	for i := len(u.lat) - 1; i >= 0; i-- {
		e := &u.lat[i]
		t.baseLat[e.fi], t.extraLat[e.fi] = e.base, e.extra
	}
	t.clkIn, t.clkInOK = u.clkIn, u.clkInOK
	t.clearDirty()
	t.clearForward()
	t.truncateBackward(u.bwdLen, u.reqStale)
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
		if len(t.fanoutArcs(e.p)) > 0 {
			continue // a pin with fanout is never an endpoint
		}
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

// logDIn records pin p's arc-delay entry before it is overwritten.
func (t *State) logDIn(p netlist.PinID) {
	if t.undo.open {
		t.undo.dIn = append(t.undo.dIn, dInOld{p: p, v: t.dIn[p]})
	}
}

// logLat records FF index fi's latencies before either is overwritten.
func (t *State) logLat(fi int32) {
	if t.undo.open {
		t.undo.lat = append(t.undo.lat, latOld{fi: fi, base: t.baseLat[fi], extra: t.extraLat[fi]})
	}
}
