// Package bench generates the synthetic evaluation circuits.
//
// The ICCAD-2015 contest benchmarks the paper evaluates on (superblue1–18)
// are not redistributable here, so this package builds placed netlists with
// the same structural statistics — flip-flop/cell/LCB ratios, LCB fanout
// caps, pipelined random logic, clustered placement — scaled to
// laptop-friendly sizes. Violation populations (a few percent of setup
// violations from over-long stages and cross-die routes, a smaller
// population of hold violations from clock skew between LCB clusters on
// short paths) are tuned to mimic the contest designs' post-placement
// profile that Table I starts from.
//
// Generation is fully deterministic for a given Profile (including Seed).
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"iterskew/internal/delay"
	"iterskew/internal/geom"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// Profile describes one benchmark to generate.
type Profile struct {
	Name string
	// FFs is the flip-flop count; the combinational cell count follows from
	// CombPerFF.
	FFs int
	// LCBs is the local-clock-buffer count (≈ FFs/20 in the contest suite).
	LCBs int
	// CombPerFF is the ratio of combinational cells to flip-flops
	// (≈ 5–8 in the contest suite).
	CombPerFF float64
	// Period is the clock period in ps; 0 auto-calibrates it to the 95th
	// percentile of the generated normal path delays, so ≈5% of endpoints
	// start with setup violations.
	Period float64
	// Ports is the number of input and of output ports.
	Ports int
	// LateFrac is the fraction of captures given an over-long stage.
	LateFrac float64
	// HoldFrac is the fraction of captures set up as skew-induced hold
	// risks.
	HoldFrac float64
	// HoldDepth is the target hold-violation magnitude in ps (default 40).
	HoldDepth float64
	// HubFrac is the fraction of captures fed from their cluster's shared
	// logic hub rather than a private cone (default 0.5). Hubs give the
	// netlist the reconvergent fanout structure of real designs: every
	// launch reaches many captures through shared gates, which is what
	// makes per-source (IC-CSS/FPM) extraction expensive and d^out bounds
	// conservative.
	HubFrac float64
	// Seed makes generation deterministic.
	Seed int64
}

// Defaults fills zero fields with contest-like values.
func (p *Profile) Defaults() {
	if p.CombPerFF == 0 {
		p.CombPerFF = 6
	}
	if p.LCBs == 0 {
		p.LCBs = (p.FFs + 19) / 20
	}
	if p.Ports == 0 {
		p.Ports = p.FFs / 50
		if p.Ports < 2 {
			p.Ports = 2
		}
	}
	if p.LateFrac == 0 {
		p.LateFrac = 0.05
	}
	if p.HoldFrac == 0 {
		p.HoldFrac = 0.03
	}
	if p.HoldDepth == 0 {
		p.HoldDepth = 40
	}
	if p.HubFrac == 0 {
		p.HubFrac = 0.5
	}
}

// Superblue returns the scaled profile of one of the eight contest designs
// used in Table I. scale is the linear shrink on the flip-flop count
// (scale=0.01 turns superblue1's 144K flip-flops into 1 440).
func Superblue(name string, scale float64) (Profile, error) {
	// #FFs and #LCBs from Table I (thousands).
	stats := map[string]struct{ ffs, lcbs float64 }{
		"superblue1":  {144, 7.2},
		"superblue3":  {168, 8.4},
		"superblue4":  {177, 8.8},
		"superblue5":  {114, 5.7},
		"superblue7":  {270, 13.5},
		"superblue10": {241, 12.1},
		"superblue16": {145, 7.1},
		"superblue18": {104, 5.2},
	}
	s, ok := stats[name]
	if !ok {
		return Profile{}, fmt.Errorf("bench: unknown design %q", name)
	}
	p := Profile{
		Name: name,
		FFs:  int(s.ffs * 1000 * scale),
		LCBs: int(s.lcbs * 1000 * scale),
		Seed: int64(len(name))*1009 + int64(s.ffs),
	}
	if p.FFs < 8 {
		p.FFs = 8
	}
	if p.LCBs < 2 {
		p.LCBs = 2
	}
	p.Defaults()
	return p, nil
}

// SuperblueNames lists the Table-I designs in paper order.
func SuperblueNames() []string {
	return []string{
		"superblue1", "superblue3", "superblue4", "superblue5",
		"superblue7", "superblue10", "superblue16", "superblue18",
	}
}

const (
	pitch  = 10.0  // DBU between cell sites
	maxHop = 300.0 // wires longer than this are "buffered" (extra depth)
)

// ffInfo pairs a flip-flop with its LCB cluster index.
type ffInfo struct {
	cell netlist.CellID
	lcb  int
}

// Generate builds the benchmark netlist for a profile.
func Generate(p Profile) (*netlist.Design, error) {
	p.Defaults()
	if p.FFs < 2 || p.LCBs < 1 {
		return nil, fmt.Errorf("bench: profile too small: %+v", p)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	lib := netlist.StdLib()
	d := netlist.NewDesign(p.Name, p.Period)
	m := delay.Default()

	totalCells := float64(p.FFs) * (1.5 + p.CombPerFF)
	side := math.Ceil(math.Sqrt(totalCells)) * pitch * 1.2
	d.Die = geom.RectOf(geom.Pt(0, 0), geom.Pt(side, side))
	d.MaxDisp = 40 * pitch
	d.LCBMaxFanout = 50

	// Clock root at the die center, LCBs on a uniform grid.
	root := d.AddCell("clkroot", lib.Get("CLKROOT"), d.Die.Center())
	grid := int(math.Ceil(math.Sqrt(float64(p.LCBs))))
	spacing := side / float64(grid)
	clusterR := 0.6 * spacing
	var lcbs []netlist.CellID
	for i := 0; i < p.LCBs; i++ {
		gx, gy := i%grid, i/grid
		pos := geom.Pt((float64(gx)+0.5)*spacing, (float64(gy)+0.5)*spacing)
		lcbs = append(lcbs, d.AddCell(fmt.Sprintf("lcb%d", i), lib.Get("LCB"), pos))
	}

	// Flip-flops clustered around their LCBs, round-robin under the cap.
	ffs := make([]ffInfo, p.FFs)
	perLCB := (p.FFs + p.LCBs - 1) / p.LCBs
	if perLCB > d.LCBMaxFanout {
		return nil, fmt.Errorf("bench: %d FFs exceed LCB capacity %d×%d", p.FFs, p.LCBs, d.LCBMaxFanout)
	}
	for i := range ffs {
		li := i % p.LCBs
		base := d.Cells[lcbs[li]].Pos
		r := rng.Float64() * clusterR
		th := rng.Float64() * 2 * math.Pi
		pos := d.Die.Clamp(base.Add(geom.Pt(r*math.Cos(th), r*math.Sin(th))))
		ffs[i] = ffInfo{d.AddCell(fmt.Sprintf("ff%d", i), lib.Get("DFF"), pos), li}
	}

	// Ports on the die boundary.
	var inPorts, outPorts []netlist.CellID
	for i := 0; i < p.Ports; i++ {
		inPorts = append(inPorts, d.AddCell(fmt.Sprintf("in%d", i), lib.Get("PORTIN"), geom.Pt(0, rng.Float64()*side)))
		outPorts = append(outPorts, d.AddCell(fmt.Sprintf("out%d", i), lib.Get("PORTOUT"), geom.Pt(side, rng.Float64()*side)))
	}

	// Clock nets.
	var lcbIns []netlist.PinID
	for _, l := range lcbs {
		lcbIns = append(lcbIns, d.LCBIn(l))
	}
	cr := d.Connect("clk_root", d.OutPin(root), lcbIns...)
	d.Nets[cr].IsClock = true
	ckSinks := make([][]netlist.PinID, p.LCBs)
	for _, f := range ffs {
		ckSinks[f.lcb] = append(ckSinks[f.lcb], d.FFClock(f.cell))
	}
	for i, l := range lcbs {
		cn := d.Connect(fmt.Sprintf("clk_l%d", i), d.LCBOut(l), ckSinks[i]...)
		d.Nets[cn].IsClock = true
	}

	// Hold-risk geometry: find the cluster-rim radius at which a one-gate
	// path violates hold by ≈ HoldDepth ps given the launch sits at its LCB.
	holdRim := solveHoldRim(m, lib, p.HoldDepth)
	if holdRim > side/2 {
		holdRim = side / 2
	}

	b := &builder{d: d, rng: rng, lib: lib, m: m}
	// Reference stage: the depth that spends the per-FF combinational
	// budget. Contest inputs come from timing-driven placement, so most
	// paths sit close to the critical delay — cones target a delay in
	// [0.75, 1.0]× the reference (late-class cones overshoot it).
	refDepth := int(p.CombPerFF/1.9) + 1
	b.refTarget = b.estimate(spacing*0.7, refDepth)

	// Shared logic hubs: per cluster, a small reconvergent mesh fed by the
	// cluster's flip-flops; hub-fed captures tap its last stage.
	hubOuts := make([][]netlist.PinID, p.LCBs)
	hubPos := make([][]geom.Point, p.LCBs)
	for c := 0; c < p.LCBs; c++ {
		var members []ffInfo
		for i := c; i < len(ffs); i += p.LCBs {
			members = append(members, ffs[i])
		}
		if len(members) == 0 {
			continue
		}
		width := len(members)/2 + 2
		const stages = 3
		center := d.Cells[lcbs[c]].Pos
		prevOut := make([]netlist.PinID, 0, width)
		for w := 0; w < width; w++ {
			ff := members[w%len(members)]
			gc := d.AddCell("h", lib.Get("INV"), jitter(rng, center, clusterR, d.Die))
			b.connect(d.FFQ(ff.cell), d.Cells[gc].Pins[0])
			prevOut = append(prevOut, d.OutPin(gc))
		}
		for s := 1; s < stages; s++ {
			cur := make([]netlist.PinID, 0, width)
			for w := 0; w < width; w++ {
				gc := d.AddCell("h", lib.Get("NAND2"), jitter(rng, center, clusterR, d.Die))
				a := prevOut[rng.Intn(len(prevOut))]
				bb := prevOut[rng.Intn(len(prevOut))]
				b.connect(a, d.Cells[gc].Pins[0])
				b.connect(bb, d.Cells[gc].Pins[1])
				cur = append(cur, d.OutPin(gc))
			}
			prevOut = cur
		}
		hubOuts[c] = prevOut
		for _, pin := range prevOut {
			hubPos[c] = append(hubPos[c], d.Cells[d.Pins[pin].Cell].Pos)
		}
	}

	var holdCaptures []int

	for i := range ffs {
		v := ffs[i]
		class := "normal"
		r := rng.Float64()
		switch {
		case r < p.LateFrac:
			class = "late"
		case r < p.LateFrac+p.HoldFrac:
			class = "hold"
		}

		fanin := 1
		if rr := rng.Float64(); rr < 0.25 {
			fanin = 3
		} else if rr < 0.6 {
			fanin = 2
		}

		if class == "hold" {
			// A mis-assigned flip-flop: clocked from its own LCB (A) but
			// placed next to a distant LCB (B), so its clock branch is long
			// (late capture clock) while its data comes from a launch local
			// to B over a short wire — a skew-induced hold risk, and
			// precisely the situation LCB–FF reconnection repairs.
			aPos := d.Cells[lcbs[v.lcb]].Pos
			bIdx := -1
			bestErr := math.Inf(1)
			for j := range lcbs {
				if j == v.lcb {
					continue
				}
				dist := aPos.Manhattan(d.Cells[lcbs[j]].Pos)
				if err := math.Abs(dist - holdRim); err < bestErr {
					bestErr = err
					bIdx = j
				}
			}
			if bIdx < 0 {
				bIdx = (v.lcb + 1) % p.LCBs
			}
			bPos := d.Cells[lcbs[bIdx]].Pos
			pos := d.Die.Clamp(jitter(rng, bPos, 2*pitch, d.Die))
			d.Cells[v.cell].Pos = pos
			d.OrigPos[v.cell] = pos

			u := ffs[pickNear(rng, ffs, bIdx, p.LCBs)]
			if u.cell == v.cell {
				u = ffs[(i+1)%len(ffs)]
			}
			d.Cells[u.cell].Pos = bPos
			d.OrigPos[u.cell] = bPos
			b.chain(d.FFQ(u.cell), bPos, d.FFData(v.cell), pos, 1)
			holdCaptures = append(holdCaptures, i)
			continue
		}

		var srcs []netlist.PinID
		var srcPos []geom.Point
		for s := 0; s < fanin; s++ {
			if rng.Float64() < p.HubFrac && len(hubOuts[v.lcb]) > 0 {
				// Tap the cluster's shared hub.
				k := rng.Intn(len(hubOuts[v.lcb]))
				srcs = append(srcs, hubOuts[v.lcb][k])
				srcPos = append(srcPos, hubPos[v.lcb][k])
				continue
			}
			if rng.Float64() < 0.05 && len(inPorts) > 0 {
				pt := inPorts[rng.Intn(len(inPorts))]
				srcs = append(srcs, d.OutPin(pt))
				srcPos = append(srcPos, d.Cells[pt].Pos)
				continue
			}
			var u ffInfo
			if rng.Float64() < 0.75 {
				u = ffs[pickNear(rng, ffs, v.lcb, p.LCBs)]
			} else {
				u = ffs[rng.Intn(len(ffs))] // cross-die route
			}
			srcs = append(srcs, d.FFQ(u.cell))
			srcPos = append(srcPos, d.Cells[u.cell].Pos)
		}

		dst := d.FFData(v.cell)
		dstPos := d.Cells[v.cell].Pos
		if fanin == 1 {
			b.cone(srcs[0], srcPos[0], dst, dstPos, class)
		} else {
			// Merge the cones through a gate cascade near the capture.
			merge := dst
			mergePos := dstPos
			for s := 0; s < fanin; s++ {
				if s < fanin-1 {
					mg := d.AddCell("mg", lib.Get("NAND2"), jitter(rng, dstPos, 2*pitch, d.Die))
					b.cone(srcs[s], srcPos[s], d.Cells[mg].Pins[0], d.Cells[mg].Pos, class)
					b.connect(d.OutPin(mg), merge)
					merge = d.Cells[mg].Pins[1]
					mergePos = d.Cells[mg].Pos
				} else {
					b.cone(srcs[s], srcPos[s], merge, mergePos, class)
				}
			}
		}
	}

	// Output-port cones from random flip-flops.
	for _, op := range outPorts {
		u := ffs[rng.Intn(len(ffs))]
		b.cone(d.FFQ(u.cell), d.Cells[u.cell].Pos, d.Cells[op].Pins[0], d.Cells[op].Pos, "normal")
	}

	// Virtual I/O clock: nominal insertion delay of the generated tree.
	d.PortLatency = nominalInsertion(d, lcbs)

	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("bench: generated design invalid: %w", err)
	}

	// Measured calibration: a throwaway timer supplies real arrivals.
	tm, err := timing.New(d, m)
	if err != nil {
		return nil, fmt.Errorf("bench: calibration timer: %w", err)
	}

	// Period: the 95th percentile of per-endpoint critical periods
	// (arrival − capture latency + setup), so ≈5% of flip-flop endpoints
	// start with setup violations, like the contest inputs.
	if d.Period == 0 {
		var tcrit []float64
		for _, f := range ffs {
			e := tm.EndpointOf(f.cell)
			at := tm.ArrivalMax(d.FFData(f.cell))
			if math.IsInf(at, 0) {
				continue
			}
			tcrit = append(tcrit, at-tm.Latency(f.cell)+d.Cells[f.cell].Type.Setup)
			_ = e
		}
		if len(tcrit) == 0 {
			return nil, fmt.Errorf("bench: no timed endpoints")
		}
		sort.Float64s(tcrit)
		d.Period = tcrit[int(float64(len(tcrit))*0.95)]
	}

	// Hold enforcement: push each hold-class capture outward from its LCB
	// until the measured early slack actually violates by ≈ HoldDepth.
	// (Early slack is period-independent, so this works after the period
	// calibration without a re-propagation.)
	for _, i := range holdCaptures {
		v := ffs[i]
		e := tm.EndpointOf(v.cell)
		lcbPos := d.Cells[lcbs[v.lcb]].Pos
		for step := 0; step < 40 && tm.EarlySlack(e) > -p.HoldDepth; step++ {
			pos := d.Cells[v.cell].Pos
			dir := pos.Sub(lcbPos)
			norm := math.Hypot(dir.X, dir.Y)
			if norm < 1 {
				dir = geom.Pt(1, 0)
				norm = 1
			}
			next := d.Die.Clamp(pos.Add(geom.Pt(dir.X/norm*120, dir.Y/norm*120)))
			if next == pos {
				break // die edge
			}
			d.Cells[v.cell].Pos = next
			d.OrigPos[v.cell] = next
			tm.DirtyCell(v.cell)
			tm.Update()
		}
	}

	return d, nil
}

// pickNear picks a flip-flop index from the same or an adjacent LCB cluster
// with high probability.
func pickNear(rng *rand.Rand, ffs []ffInfo, lcb, nLCB int) int {
	target := lcb
	if rng.Float64() < 0.4 {
		target = (lcb + 1 + rng.Intn(2)) % nLCB
	}
	n := len(ffs)
	count := (n - target + nLCB - 1) / nLCB
	if count <= 0 {
		return rng.Intn(n)
	}
	return target + rng.Intn(count)*nLCB
}

// builder emits gate chains.
type builder struct {
	d         *netlist.Design
	rng       *rand.Rand
	lib       *netlist.Library
	m         delay.Model
	refTarget float64
	n         int
}

// cone builds one source→sink chain whose estimated delay lands near the
// class's target: normal cones in [0.75, 1.0]× the reference delay (the
// near-critical regime of timing-driven placement), late cones beyond it.
func (b *builder) cone(src netlist.PinID, srcPos geom.Point, dst netlist.PinID, dstPos geom.Point, class string) float64 {
	dist := srcPos.Manhattan(dstPos)
	minDepth := int(math.Ceil(dist / maxHop))
	if minDepth < 1 {
		minDepth = 1
	}
	target := b.refTarget * (0.75 + 0.25*b.rng.Float64())
	if class == "late" {
		target = b.refTarget * (1.08 + 0.5*b.rng.Float64())
	}
	depth := minDepth
	for b.estimate(dist, depth) < target && depth < minDepth+60 {
		depth++
	}
	b.chain(src, srcPos, dst, dstPos, depth)
	return b.estimate(dist, depth)
}

// estimate approximates the clk-edge→sink delay of a chain: launch (clk→Q +
// drive), per-gate delay, and per-hop Elmore wire.
func (b *builder) estimate(dist float64, depth int) float64 {
	const launch = 65.0 // clk→Q + Q drive on typical load
	const gate = 16.0   // mean gate delay on typical load
	hop := dist / float64(depth+1)
	wirePerHop := b.m.WireDelay(hop, 1.3) + 1.4*b.m.WireCap(hop)
	return launch + float64(depth)*gate + float64(depth+1)*wirePerHop
}

// chain builds depth gates from src (an output pin) to dst (an input pin),
// placing them along the straight line between the endpoints with jitter.
func (b *builder) chain(src netlist.PinID, srcPos geom.Point, dst netlist.PinID, dstPos geom.Point, depth int) {
	d := b.d
	prev := src
	for j := 0; j < depth; j++ {
		t := float64(j+1) / float64(depth+1)
		pos := geom.Pt(srcPos.X+(dstPos.X-srcPos.X)*t, srcPos.Y+(dstPos.Y-srcPos.Y)*t)
		pos = jitter(b.rng, pos, 3*pitch, d.Die)
		ct := b.lib.Comb[b.rng.Intn(len(b.lib.Comb))]
		gc := d.AddCell(fmt.Sprintf("g%d", b.n), ct, pos)
		b.n++
		// All inputs of multi-input chain gates share the predecessor net.
		ins := make([]netlist.PinID, ct.NumInputs)
		for k := range ins {
			ins[k] = d.Cells[gc].Pins[k]
		}
		b.connect(prev, ins...)
		prev = d.OutPin(gc)
	}
	b.connect(prev, dst)
}

// connect attaches sinks to the driver's existing net, creating the net on
// first use — flip-flop Q pins source many cones and must share one net.
func (b *builder) connect(drv netlist.PinID, sinks ...netlist.PinID) {
	if n := b.d.Pins[drv].Net; n != netlist.NoNet {
		for _, s := range sinks {
			b.d.AddSink(n, s)
		}
		return
	}
	b.d.Connect("n", drv, sinks...)
}

func jitter(rng *rand.Rand, p geom.Point, r float64, die geom.Rect) geom.Point {
	return die.Clamp(p.Add(geom.Pt((rng.Float64()*2-1)*r, (rng.Float64()*2-1)*r)))
}

// solveHoldRim finds the clock-branch length R at which a mis-assigned
// capture's extra clock latency exceeds a short local path's hold margin by
// target ps (the data wire is short — the capture sits next to the launch's
// LCB — so only the branch grows with R).
func solveHoldRim(m delay.Model, lib *netlist.Library, target float64) float64 {
	ff := lib.Get("DFF")
	hop := 30.0
	minPath := 65 + 16 + 2*(m.WireDelay(hop, 1.3)+1.4*m.WireCap(hop))
	for r := 100.0; r < 50000; r += 50 {
		skew := m.WireDelay(r, ff.InputCap) + lib.Get("LCB").DriveRes*m.WireCap(r)
		if skew-(minPath-ff.Hold) >= target {
			return r
		}
	}
	return 50000
}

// nominalInsertion estimates the clock tree's nominal insertion delay
// (root delay + balanced top wire + mean LCB delay + mean branch), matching
// the timer's clock model without importing it.
func nominalInsertion(d *netlist.Design, lcbs []netlist.CellID) float64 {
	m := delay.Default()
	rootNet := d.Pins[d.OutPin(d.ClockRoot)].Net
	rootDelay := m.CellDelay(d.Cells[d.ClockRoot].Type, m.NetLoad(d, rootNet))
	balanced := 0.0
	for _, s := range d.Nets[rootNet].Sinks {
		if w := m.SinkWireDelay(d, rootNet, s); w > balanced {
			balanced = w
		}
	}
	var sum float64
	var n int
	for _, l := range lcbs {
		outNet := d.Pins[d.LCBOut(l)].Net
		if outNet == netlist.NoNet {
			continue
		}
		lcbDelay := m.CellDelay(d.Cells[l].Type, m.NetLoad(d, outNet))
		for _, s := range d.Nets[outNet].Sinks {
			sum += lcbDelay + m.SinkWireDelay(d, outNet, s)
			n++
		}
	}
	if n == 0 {
		return rootDelay + balanced
	}
	return rootDelay + balanced + sum/float64(n)
}
