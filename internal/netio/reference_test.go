package netio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"iterskew/internal/geom"
	"iterskew/internal/netlist"
)

// readRef is the line-scanner reader that Read replaced, kept verbatim as
// the reference the equivalence tests hold Read to. It accepts NaN and ±Inf
// wherever strconv.ParseFloat does; Read rejects them.
func readRef(r io.Reader) (*netlist.Design, error) {
	lib := netlist.StdLib()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)

	line := 0
	next := func() ([]string, error) {
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			return strings.Fields(text), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.ErrUnexpectedEOF
	}
	errf := func(format string, args ...any) error {
		return fmt.Errorf("netio: line %d: %s", line, fmt.Sprintf(format, args...))
	}
	// errw positions an underlying error (scanner failure, unexpected EOF)
	// at the last line read while keeping it unwrappable for errors.Is.
	errw := func(err error) error {
		return fmt.Errorf("netio: line %d: %w", line, err)
	}

	f, err := next()
	if err != nil {
		return nil, errw(err)
	}
	if len(f) < 2 || f[0] != "iterskew-netlist" || f[1] != "v1" {
		return nil, errf("bad header %v", f)
	}

	d := netlist.NewDesign("", 0)
	var cellCount int
	for {
		f, err = next()
		if err != nil {
			return nil, errw(err)
		}
		switch f[0] {
		case "design":
			if len(f) != 2 {
				return nil, errf("design wants 1 arg")
			}
			d.Name = f[1]
		case "period":
			if d.Period, err = parse1(f); err != nil {
				return nil, errf("%v", err)
			}
		case "portlatency":
			if d.PortLatency, err = parse1(f); err != nil {
				return nil, errf("%v", err)
			}
		case "maxdisp":
			if d.MaxDisp, err = parse1(f); err != nil {
				return nil, errf("%v", err)
			}
		case "indelay", "outdelay":
			if len(f) != 3 {
				return nil, errf("%s wants 2 args", f[0])
			}
			ci, err1 := strconv.Atoi(f[1])
			v, err2 := strconv.ParseFloat(f[2], 64)
			if err1 != nil || err2 != nil || ci < 0 || ci >= len(d.Cells) {
				return nil, errf("bad %s %v", f[0], f)
			}
			if f[0] == "indelay" {
				d.SetInputDelay(netlist.CellID(ci), v)
			} else {
				d.SetOutputDelay(netlist.CellID(ci), v)
			}
		case "lcbmaxfanout":
			v, err := parse1(f)
			if err != nil {
				return nil, errf("%v", err)
			}
			d.LCBMaxFanout = int(v)
		case "die":
			if len(f) != 5 {
				return nil, errf("die wants 4 args")
			}
			var vals [4]float64
			for i := 0; i < 4; i++ {
				if vals[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
					return nil, errf("die: %v", err)
				}
			}
			d.Die = geom.RectOf(geom.Pt(vals[0], vals[1]), geom.Pt(vals[2], vals[3]))
		case "cells":
			v, err := parse1(f)
			if err != nil {
				return nil, errf("%v", err)
			}
			cellCount = int(v)
			for i := 0; i < cellCount; i++ {
				cf, err := next()
				if err != nil {
					return nil, errw(err)
				}
				if len(cf) != 4 {
					return nil, errf("cell wants 4 fields, got %v", cf)
				}
				ct := lib.Get(cf[0])
				if ct == nil {
					return nil, errf("unknown cell type %q", cf[0])
				}
				x, err1 := strconv.ParseFloat(cf[2], 64)
				y, err2 := strconv.ParseFloat(cf[3], 64)
				if err1 != nil || err2 != nil {
					return nil, errf("bad cell position %v", cf)
				}
				d.AddCell(cf[1], ct, geom.Pt(x, y))
			}
		case "nets":
			v, err := parse1(f)
			if err != nil {
				return nil, errf("%v", err)
			}
			for i := 0; i < int(v); i++ {
				nf, err := next()
				if err != nil {
					return nil, errw(err)
				}
				if len(nf) < 4 {
					return nil, errf("net wants >=4 fields, got %v", nf)
				}
				clock := nf[1] == "1"
				np, err := strconv.Atoi(nf[2])
				if err != nil || np < 1 || len(nf) != 3+np {
					return nil, errf("bad net pin count %v", nf)
				}
				pins := make([]netlist.PinID, np)
				for k := 0; k < np; k++ {
					pins[k], err = parsePinRef(d, nf[3+k])
					if err != nil {
						return nil, errf("%v", err)
					}
				}
				nid := d.Connect(nf[0], pins[0], pins[1:]...)
				d.Nets[nid].IsClock = clock
			}
		case "end":
			if err := d.Validate(); err != nil {
				return nil, fmt.Errorf("netio: line %d: %w", line, err)
			}
			return d, nil
		default:
			return nil, errf("unknown directive %q", f[0])
		}
	}
}

func parse1(f []string) (float64, error) {
	if len(f) != 2 {
		return 0, fmt.Errorf("%s wants 1 arg", f[0])
	}
	return strconv.ParseFloat(f[1], 64)
}

func parsePinRef(d *netlist.Design, s string) (netlist.PinID, error) {
	ci, pi, ok := strings.Cut(s, ":")
	if !ok {
		return netlist.NoPin, fmt.Errorf("bad pin ref %q", s)
	}
	c, err1 := strconv.Atoi(ci)
	p, err2 := strconv.Atoi(pi)
	if err1 != nil || err2 != nil {
		return netlist.NoPin, fmt.Errorf("bad pin ref %q", s)
	}
	if c < 0 || c >= len(d.Cells) {
		return netlist.NoPin, fmt.Errorf("pin ref %q: cell out of range", s)
	}
	if p < 0 || p >= len(d.Cells[c].Pins) {
		return netlist.NoPin, fmt.Errorf("pin ref %q: pin out of range", s)
	}
	return d.Cells[c].Pins[p], nil
}
