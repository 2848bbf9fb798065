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
// rejected trial costs no second propagation. SlackDelta reads the same log
// in one backward walk and summarizes both modes, and CheckpointWNS combines
// the log's old values with the untouched endpoints' current slacks into the
// WNS at Checkpoint, the one read that scans every endpoint; a decision
// needs it only when SlackDelta's worst changed slack is below −eps.
//
// Required times need no log: Update only queues backward seeds, and a
// required-time read inside a trial panics. Checkpoint records each backward
// bucket's length instead, and Rollback cuts the buckets back to it, so the
// seeds of committed trials stay queued for the next read. It does the same
// with the two dirty queues, so a reconnection pass can run its trials as
//
//	Checkpoint → move a clock pin, DirtyCell → RetimeClock → LaunchModel.SlackDelta
//	→ Commit and LaunchModel.Fold
//
// (launch.go) and propagate every kept trial's flip-flops with one Update
// after the last: a rejected trial drops only the flip-flops it queued. A
// drain inside the checkpoint (Update, or RetimeClock for the cells) first
// keeps a copy of what was queued before it, for Rollback to queue again.
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

	// The dirty queues at Checkpoint.
	ffCut, cellCut queueCut

	// Scratch of touchLogged, indexed by endpoint; mark[e] == epoch means e
	// is in touched for the current call.
	mark    []uint32
	epoch   uint32
	old     []epTimes
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

// queueCut is a dirty queue as it stood at Checkpoint: its length, and,
// once a drain inside the checkpoint has consumed the queue, a copy of the
// entries it held then.
type queueCut struct {
	n       int
	drained bool
	kept    []netlist.CellID
}

// open records the queue's length at Checkpoint.
func (c *queueCut) open(q []netlist.CellID) { c.n, c.drained = len(q), false }

// drain keeps the entries q held at Checkpoint, once per checkpoint, before
// a drain empties q.
func (c *queueCut) drain(q []netlist.CellID) {
	if !c.drained {
		c.drained = true
		c.kept = append(c.kept[:0], q[:c.n]...)
	}
}

// cut returns q as it stood at Checkpoint, keeping mark, its in-queue
// bitset indexed by cell, in step.
func (c *queueCut) cut(q []netlist.CellID, mark []bool) []netlist.CellID {
	if !c.drained {
		for _, x := range q[c.n:] {
			mark[x] = false
		}
		return q[:c.n]
	}
	for _, x := range q {
		mark[x] = false
	}
	q = append(q[:0], c.kept...)
	for _, x := range q {
		mark[x] = true
	}
	return q
}

// epTimes is an endpoint's capture latency (0 for a port) and arrivals.
type epTimes struct {
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
// backward bucket and dirty queue, so Rollback drops exactly the seeds and
// the changes the trial queued. One checkpoint may be open at a time;
// opening a second one panics, and so does a required-time read
// (LaunchLateSlack, LaunchEarlySlack) before the log closes. Forward
// propagation should be settled: Rollback empties the forward buckets,
// which hold pins only after an Update the SetCheck hook aborted.
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
	u.ffCut.open(t.dirtyFFList)
	u.cellCut.open(t.dirtyCellList)
}

// Commit keeps every change made since Checkpoint and closes the log. It is
// a no-op when no checkpoint is open.
func (t *State) Commit() { t.undo.close() }

// Rollback restores every arrival time, clock latency and arc delay to its
// value at Checkpoint, bit for bit, returns the dirty queues and the
// backward buckets to what they held at Checkpoint (required times are
// never written inside a trial, so the seeds and changes queued before it,
// committed trials' included, stay queued), empties the forward buckets,
// and closes the log. The caller reverts the design itself (MovePinToNet,
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
	t.dirtyFFList = u.ffCut.cut(t.dirtyFFList, t.ffDirtyMark)
	t.dirtyCellList = u.cellCut.cut(t.dirtyCellList, t.cellDirtyMark)
	t.clearForward()
	t.truncateBackward(u.bwdLen, u.reqStale)
	u.close()
}

// SlackDelta summarizes what the open checkpoint did to the endpoint slacks
// in both modes, indexed by Mode; call it after the trial's Update. It walks
// the undo log once, visiting only the endpoints whose arrival or capture
// latency was logged, and takes old slacks from the logged values and new
// ones from the current state. dTNS[m] is Σ(min(new,0) − min(old,0)) — the
// change in WNSTNS(m)'s TNS, summed over fewer terms — and worst[m] is the
// minimum new slack among the endpoints whose mode-m slack changed (+Inf if
// none). Every other endpoint keeps its slack bit for bit, so "WNS after ≥
// g" holds exactly when worst[m] ≥ g, for any g ≤ min(0, WNS before). With
// no checkpoint open it returns zeros and +Inf.
func (t *State) SlackDelta() (dTNS, worst [2]float64) {
	worst = [2]float64{math.Inf(1), math.Inf(1)}
	if !t.touchLogged() {
		return dTNS, worst
	}
	u := &t.undo
	for _, ep := range u.touched {
		was := t.slackWith(ep, u.old[ep])
		now := t.slackWith(ep, t.epNow(ep))
		for m := range now {
			if math.Float64bits(was[m]) == math.Float64bits(now[m]) {
				continue
			}
			dTNS[m] += negPart(now[m]) - negPart(was[m])
			if now[m] < worst[m] {
				worst[m] = now[m]
			}
		}
	}
	return dTNS, worst
}

// CheckpointWNS returns WNSTNS(m)'s WNS as it stood when the open checkpoint
// was taken, bit for bit: the endpoints the log touched are evaluated from
// their logged values, every other endpoint from the current state, whose
// slack has not changed since. Unlike SlackDelta it scans every endpoint,
// so a trial decision reads it only when SlackDelta's worst alone cannot
// settle the decision. With no checkpoint open it is WNSTNS(m)'s WNS.
func (t *State) CheckpointWNS(m Mode) (wns float64) {
	if !t.touchLogged() {
		wns, _ = t.WNSTNS(m)
		return wns
	}
	u := &t.undo
	for e := range t.endpoints {
		ep := EndpointID(e)
		v := t.epNow(ep)
		if u.mark[ep] == u.epoch {
			v = u.old[ep]
		}
		if s := t.slackWith(ep, v)[m]; s < wns {
			wns = s
		}
	}
	return wns
}

// touchLogged collects in touched the endpoints whose arrival or capture
// latency the open checkpoint logged, each with its values at Checkpoint in
// old, and bumps the epoch that marks them. It reports false, leaving the
// scratch as it was, when the log holds no such write.
func (t *State) touchLogged() bool {
	u := &t.undo
	if len(u.at) == 0 && len(u.lat) == 0 {
		return false
	}
	if len(u.mark) != len(t.endpoints) {
		u.mark = make([]uint32, len(t.endpoints))
		u.old = make([]epTimes, len(t.endpoints))
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
	return true
}

// negPart is min(s, 0), counted the way WNSTNS counts a violation.
func negPart(s float64) float64 {
	if s < 0 {
		return s
	}
	return 0
}

// touchEndpoint adds ep to the current touchLogged call's endpoint set,
// seeding its old values with the current ones.
func (t *State) touchEndpoint(ep EndpointID) {
	u := &t.undo
	if u.mark[ep] == u.epoch {
		return
	}
	u.mark[ep] = u.epoch
	u.touched = append(u.touched, ep)
	u.old[ep] = t.epNow(ep)
}

// epNow returns an endpoint's current capture latency and arrivals.
func (t *State) epNow(e EndpointID) epTimes {
	ep := &t.endpoints[e]
	v := epTimes{atMin: t.atMin[ep.Pin], atMax: t.atMax[ep.Pin]}
	if !ep.IsPort {
		v.lat = t.Latency(ep.Cell)
	}
	return v
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
