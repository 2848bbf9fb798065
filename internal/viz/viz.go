// Package viz renders a placed design to SVG: the die, cells colored by
// their worst endpoint slack, LCB clusters with their clock branches, and
// optionally the worst violating paths — the visual debugging aid an
// open-source release of the system would ship with.
package viz

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// Options controls the rendering.
type Options struct {
	// WidthPx is the output image width in pixels (default 1000).
	WidthPx float64
	// Mode selects the slack coloring (default Late).
	Mode timing.Mode
	// WorstPaths overlays this many worst paths (default 3; negative: none).
	WorstPaths int
	// HideClock suppresses the clock-tree edges.
	HideClock bool
}

func (o *Options) defaults() {
	if o.WidthPx == 0 {
		o.WidthPx = 1000
	}
	if o.WorstPaths == 0 {
		o.WorstPaths = 3
	}
}

// Render writes an SVG view of the timer's design.
func Render(w io.Writer, tm *timing.State, o Options) error {
	o.defaults()
	d := tm.D
	die := d.Die
	if die.Empty() || die.Width() <= 0 || die.Height() <= 0 {
		return fmt.Errorf("viz: design has no usable die")
	}
	scale := o.WidthPx / die.Width()
	hPx := die.Height() * scale

	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		o.WidthPx, hPx, o.WidthPx, hPx)
	fmt.Fprintf(bw, `<rect width="%.0f" height="%.0f" fill="#101418"/>`+"\n", o.WidthPx, hPx)

	px := func(p netlist.PinID) (float64, float64) {
		pos := d.PinPos(p)
		return (pos.X - die.Lo.X) * scale, (die.Hi.Y - pos.Y) * scale
	}
	cx := func(c netlist.CellID) (float64, float64) {
		pos := d.Cells[c].Pos
		return (pos.X - die.Lo.X) * scale, (die.Hi.Y - pos.Y) * scale
	}

	// Worst slack per cell (endpoint cells only; others neutral).
	worst := map[netlist.CellID]float64{}
	var wnsScale float64 = 1
	for e := range tm.Endpoints() {
		ep := tm.Endpoints()[e]
		s := tm.Slack(timing.EndpointID(e), o.Mode)
		if math.IsInf(s, 0) {
			continue
		}
		worst[ep.Cell] = s
		if s < -wnsScale {
			wnsScale = -s
		}
	}

	// Clock tree.
	if !o.HideClock {
		for _, lcb := range d.LCBs {
			lx, ly := cx(lcb)
			net := d.Pins[d.LCBOut(lcb)].Net
			if net == netlist.NoNet {
				continue
			}
			for _, s := range d.Nets[net].Sinks {
				sx, sy := px(s)
				fmt.Fprintf(bw, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#2b4d6f" stroke-width="0.5"/>`+"\n",
					lx, ly, sx, sy)
			}
		}
	}

	// Combinational cells: tiny grey dots.
	for i := range d.Cells {
		c := netlist.CellID(i)
		if d.Cells[c].Type.Kind != netlist.KindComb {
			continue
		}
		x, y := cx(c)
		fmt.Fprintf(bw, `<circle cx="%.1f" cy="%.1f" r="0.8" fill="#3a3f46"/>`+"\n", x, y)
	}

	// Flip-flops colored by slack: green (met) → red (worst).
	for _, ff := range d.FFs {
		x, y := cx(ff)
		s, ok := worst[ff]
		fill := "#3fb950"
		if ok && s < 0 {
			t := math.Min(1, -s/wnsScale)
			fill = fmt.Sprintf("#%02x%02x30", 80+int(175*t), int(185*(1-t)+40))
		}
		fmt.Fprintf(bw, `<rect x="%.1f" y="%.1f" width="3" height="3" fill="%s"/>`+"\n", x-1.5, y-1.5, fill)
	}

	// LCBs and clock root.
	for _, lcb := range d.LCBs {
		x, y := cx(lcb)
		fmt.Fprintf(bw, `<rect x="%.1f" y="%.1f" width="5" height="5" fill="none" stroke="#58a6ff"/>`+"\n", x-2.5, y-2.5)
	}
	if d.ClockRoot != netlist.NoCell {
		x, y := cx(d.ClockRoot)
		fmt.Fprintf(bw, `<circle cx="%.1f" cy="%.1f" r="4" fill="none" stroke="#58a6ff" stroke-width="1.5"/>`+"\n", x, y)
	}

	// Worst-path overlays.
	if o.WorstPaths > 0 {
		for i, r := range tm.WorstPaths(o.Mode, o.WorstPaths) {
			if r.Slack >= 0 {
				break
			}
			opacity := 1.0 - 0.25*float64(i)
			var pts string
			for _, step := range r.Steps {
				x, y := px(step.Pin)
				pts += fmt.Sprintf("%.1f,%.1f ", x, y)
			}
			fmt.Fprintf(bw, `<polyline points="%s" fill="none" stroke="#f85149" stroke-width="1.2" opacity="%.2f"/>`+"\n",
				pts, opacity)
		}
	}

	fmt.Fprintf(bw, `<text x="6" y="%.0f" fill="#8b949e" font-size="12" font-family="monospace">%s | %s | %s</text>`+"\n",
		hPx-6, d.Name, o.Mode, statLine(tm, o.Mode))
	fmt.Fprintln(bw, `</svg>`)
	return bw.Flush()
}

func statLine(tm *timing.State, m timing.Mode) string {
	wns, tns := tm.WNSTNS(m)
	return fmt.Sprintf("WNS %.1fps TNS %.1fps", wns, tns)
}
