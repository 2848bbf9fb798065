// Package netio serializes designs to and from a line-oriented text format,
// standing in for the Bookshelf files of the ICCAD-2015 contest. The format
// is self-contained except for the cell library: cell types are referenced
// by name and resolved against netlist.StdLib on read.
//
// Format (one declaration per line, '#' starts a comment):
//
//	iterskew-netlist v1
//	design <name>
//	period <ps>
//	portlatency <ps>
//	die <lox> <loy> <hix> <hiy>
//	maxdisp <dbu>
//	lcbmaxfanout <n>
//	cells <count>
//	<type> <name> <x> <y>            # repeated <count> times, index = order
//	nets <count>
//	<name> <clock 0|1> <npins> <cell>:<pin> ...   # first pin is the driver
//	end
//
// Read allocates only what the returned design keeps. It reads each line
// into one reused buffer (a line longer than the buffer is reassembled in
// one reused slice, up to 16 MB) and cuts it into fields as sub-slices of
// that buffer, at the white space strings.Fields cuts at. Numbers are
// parsed from the fields in place with strconv's syntax; NaN and ±Inf are
// rejected in every numeric field. Each cells or nets section copies its
// names into one string, and each cell's pin list and each net's sink list
// is one allocation. A declared count reserves the design's slices up
// front, but at most 2,048 entries before the body has supplied any. On a
// 2-vCPU Xeon host it parses the 16 designs of the perfbench seed-1 fleet
// (19.5 MB) 1.8 times as fast as the line-scanner reader it replaced, at
// 110-120 MB/s against 61-66 MB/s (best of 9 per design, both readers
// interleaved), and allocates 113 MB for them against 366 MB.
package netio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"iterskew/internal/geom"
	"iterskew/internal/netlist"
)

// Write serializes d to w. It builds the whole text in one buffer with
// strconv appends rather than fmt — Write sits on the content-hashing hot
// path (graphio.HashOf serializes the netlist per hash), so the reflective
// fmt machinery is measurable overhead at superblue scale.
func Write(w io.Writer, d *netlist.Design) error {
	b := make([]byte, 0, 64+32*len(d.Cells)+48*len(d.Nets))
	g := func(v float64) { b = strconv.AppendFloat(b, v, 'g', -1, 64) }
	i := func(v int) { b = strconv.AppendInt(b, int64(v), 10) }

	b = append(b, "iterskew-netlist v1\ndesign "...)
	b = append(b, sanitize(d.Name)...)
	b = append(b, "\nperiod "...)
	g(d.Period)
	b = append(b, "\nportlatency "...)
	g(d.PortLatency)
	b = append(b, '\n')
	if !d.Die.Empty() {
		b = append(b, "die "...)
		g(d.Die.Lo.X)
		b = append(b, ' ')
		g(d.Die.Lo.Y)
		b = append(b, ' ')
		g(d.Die.Hi.X)
		b = append(b, ' ')
		g(d.Die.Hi.Y)
		b = append(b, '\n')
	}
	b = append(b, "maxdisp "...)
	g(d.MaxDisp)
	b = append(b, "\nlcbmaxfanout "...)
	i(d.LCBMaxFanout)
	b = append(b, "\ncells "...)
	i(len(d.Cells))
	b = append(b, '\n')
	for ci := range d.Cells {
		c := &d.Cells[ci]
		b = append(b, c.Type.Name...)
		b = append(b, ' ')
		b = append(b, sanitize(c.Name)...)
		b = append(b, ' ')
		g(c.Pos.X)
		b = append(b, ' ')
		g(c.Pos.Y)
		b = append(b, '\n')
	}

	for _, kv := range sortedDelays(d.InDelay) {
		b = append(b, "indelay "...)
		i(int(kv.c))
		b = append(b, ' ')
		g(kv.v)
		b = append(b, '\n')
	}
	for _, kv := range sortedDelays(d.OutDelay) {
		b = append(b, "outdelay "...)
		i(int(kv.c))
		b = append(b, ' ')
		g(kv.v)
		b = append(b, '\n')
	}

	// Pin index within its owning cell, precomputed so each net pin is O(1)
	// instead of a scan over the cell's pin list.
	pinIdx := make([]int32, len(d.Pins))
	for ci := range d.Cells {
		for k, p := range d.Cells[ci].Pins {
			pinIdx[p] = int32(k)
		}
	}

	b = append(b, "nets "...)
	i(len(d.Nets))
	b = append(b, '\n')
	for ni := range d.Nets {
		n := &d.Nets[ni]
		b = append(b, sanitize(n.Name)...)
		if n.IsClock {
			b = append(b, " 1 "...)
		} else {
			b = append(b, " 0 "...)
		}
		i(1 + len(n.Sinks))
		writePin := func(p netlist.PinID) {
			b = append(b, ' ')
			i(int(d.Pins[p].Cell))
			b = append(b, ':')
			i(int(pinIdx[p]))
		}
		writePin(n.Driver)
		for _, s := range n.Sinks {
			writePin(s)
		}
		b = append(b, '\n')
	}
	b = append(b, "end\n"...)
	_, err := w.Write(b)
	return err
}

type delayKV struct {
	c netlist.CellID
	v float64
}

// sortedDelays returns a deterministic listing of a port-delay map.
func sortedDelays(m map[netlist.CellID]float64) []delayKV {
	out := make([]delayKV, 0, len(m))
	for c, v := range m {
		out = append(out, delayKV{c, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].c < out[j].c })
	return out
}

// sanitize replaces whitespace in names so the line format stays parseable.
func sanitize(s string) string {
	if s == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' {
			return '_'
		}
		return r
	}, s)
}

const (
	// readBufSize is the read buffer's size; a longer line is reassembled in
	// one reused spill slice.
	readBufSize = 64 << 10
	// maxLine is the longest line Read accepts, newline excluded. A longer
	// one fails with bufio.ErrTooLong.
	maxLine = 1 << 24
	// maxReserve bounds how many entries a declared cells or nets count
	// reserves before any of them is read (see grow): a header may declare
	// far more than its body holds.
	maxReserve = 1 << 11
)

// Read parses a design previously produced by Write, resolving cell types
// against netlist.StdLib. A NaN or ±Inf in any numeric field is an error.
func Read(r io.Reader) (*netlist.Design, error) {
	p := parser{br: bufio.NewReaderSize(r, readBufSize), lib: netlist.StdLib(), d: netlist.NewDesign("", 0)}
	if err := p.next(); err != nil {
		return nil, err
	}
	if f := p.f; len(f) < 2 || view(f[0]) != "iterskew-netlist" || view(f[1]) != "v1" {
		return nil, p.errf("bad header %v", strs(f))
	}
	d := p.d
	for {
		if err := p.next(); err != nil {
			return nil, err
		}
		f := p.f
		var err error
		switch dir := view(f[0]); dir {
		case "design":
			if len(f) != 2 {
				return nil, p.errf("design wants 1 arg")
			}
			d.Name = string(f[1])
		case "period":
			d.Period, err = p.arg()
		case "portlatency":
			d.PortLatency, err = p.arg()
		case "maxdisp":
			d.MaxDisp, err = p.arg()
		case "indelay", "outdelay":
			if len(f) != 3 {
				return nil, p.errf("%s wants 2 args", dir)
			}
			ci, err1 := strconv.Atoi(view(f[1]))
			v, err2 := strconv.ParseFloat(view(f[2]), 64)
			if err1 != nil || err2 != nil || ci < 0 || ci >= len(d.Cells) {
				return nil, p.errf("bad %s %v", dir, strs(f))
			}
			if !finite(v) {
				return nil, p.errf("%s: non-finite number %q", dir, f[2])
			}
			if dir == "indelay" {
				d.SetInputDelay(netlist.CellID(ci), v)
			} else {
				d.SetOutputDelay(netlist.CellID(ci), v)
			}
		case "lcbmaxfanout":
			var v float64
			v, err = p.arg()
			d.LCBMaxFanout = int(v)
		case "die":
			if len(f) != 5 {
				return nil, p.errf("die wants 4 args")
			}
			var vals [4]float64
			for i := range vals {
				if vals[i], err = strconv.ParseFloat(view(f[i+1]), 64); err != nil {
					return nil, p.errf("die: %v", err)
				}
				if !finite(vals[i]) {
					return nil, p.errf("die: non-finite number %q", f[i+1])
				}
			}
			d.Die = geom.RectOf(geom.Pt(vals[0], vals[1]), geom.Pt(vals[2], vals[3]))
		case "cells":
			var v float64
			if v, err = p.arg(); err == nil {
				err = p.cells(int(v))
			}
		case "nets":
			var v float64
			if v, err = p.arg(); err == nil {
				err = p.nets(int(v))
			}
		case "end":
			if err := d.Validate(); err != nil {
				return nil, fmt.Errorf("netio: line %d: %w", p.line, err)
			}
			return d, nil
		default:
			return nil, p.errf("unknown directive %q", dir)
		}
		if err != nil {
			return nil, err
		}
	}
}

// parser is Read's state. Its line's fields are sub-slices of the read
// buffer (or of spill), valid until the next line is read: anything the
// design keeps is copied out of them, and every error that quotes one is
// formatted before the next read.
type parser struct {
	br    *bufio.Reader
	spill []byte   // a line longer than br's buffer, reassembled
	f     [][]byte // the current line's fields
	line  int      // 1-based number of the last line read
	err   error    // the read error every later next returns

	lib *netlist.Library
	d   *netlist.Design

	// Per-section scratch: the section's names back to back, where each
	// one ends, and one net's pins.
	names []byte
	ends  []int
	pins  []netlist.PinID
}

// next reads up to the next line with a field that does not start with '#',
// and cuts it into p.f. A read failure, io.ErrUnexpectedEOF at the end of
// the input, comes back positioned at the last line read.
func (p *parser) next() error {
	for {
		b, err := p.readLine()
		if err != nil {
			return fmt.Errorf("netio: line %d: %w", p.line, err)
		}
		p.line++
		p.f = fields(p.f[:0], b)
		if len(p.f) > 0 && p.f[0][0] != '#' {
			return nil
		}
	}
}

// readLine returns the next line, its newline included. It splits the input
// as bufio.ScanLines does: a final line needs no newline, and a line of
// maxLine bytes or more, newline excluded, fails with bufio.ErrTooLong.
func (p *parser) readLine() ([]byte, error) {
	if p.err != nil {
		return nil, p.err
	}
	b, err := p.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		p.spill = append(p.spill[:0], b...)
		for err == bufio.ErrBufferFull && len(p.spill) < maxLine {
			b, err = p.br.ReadSlice('\n')
			p.spill = append(p.spill, b...)
		}
		b = p.spill
	}
	n := len(b)
	if n > 0 && b[n-1] == '\n' {
		n--
	}
	switch {
	case n >= maxLine:
		p.err = bufio.ErrTooLong
		return nil, p.err
	case err == io.EOF:
		p.err = io.ErrUnexpectedEOF
	case err != nil:
		p.err = err
	}
	if len(b) == 0 {
		return nil, p.err
	}
	return b, nil
}

// errf positions a parse error at the current line.
func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("netio: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// arg parses the one numeric argument of the current line's directive.
func (p *parser) arg() (float64, error) {
	f := p.f
	if len(f) != 2 {
		return 0, p.errf("%s wants 1 arg", f[0])
	}
	v, err := strconv.ParseFloat(view(f[1]), 64)
	if err != nil {
		return 0, p.errf("%v", err)
	}
	if !finite(v) {
		return 0, p.errf("%s: non-finite number %q", f[0], f[1])
	}
	return v, nil
}

// cells reads a section of n cell lines.
func (p *parser) cells(n int) error {
	d := p.d
	base := len(d.Cells)
	p.names, p.ends = p.names[:0], p.ends[:0]
	for i, room := 0, 0; i < n; i++ {
		if i == room {
			k := grow(n, i)
			d.Cells = slices.Grow(d.Cells, k)
			d.OrigPos = slices.Grow(d.OrigPos, k)
			d.Pins = slices.Grow(d.Pins, 3*k) // about three pins a cell
			p.ends = slices.Grow(p.ends, k)
			room += k
		}
		if err := p.next(); err != nil {
			return err
		}
		f := p.f
		if len(f) != 4 {
			return p.errf("cell wants 4 fields, got %v", strs(f))
		}
		ct := p.lib.Get(view(f[0]))
		if ct == nil {
			return p.errf("unknown cell type %q", f[0])
		}
		x, err1 := strconv.ParseFloat(view(f[2]), 64)
		y, err2 := strconv.ParseFloat(view(f[3]), 64)
		if err1 != nil || err2 != nil {
			return p.errf("bad cell position %v", strs(f))
		}
		if !finite(x) || !finite(y) {
			return p.errf("cell %s: non-finite position %v", f[1], strs(f[2:]))
		}
		p.names = append(p.names, f[1]...)
		p.ends = append(p.ends, len(p.names))
		d.AddCell("", ct, geom.Pt(x, y))
	}
	p.sectionNames(func(i int, name string) { d.Cells[base+i].Name = name })
	return nil
}

// nets reads a section of n net lines.
func (p *parser) nets(n int) error {
	d := p.d
	base := len(d.Nets)
	p.names, p.ends = p.names[:0], p.ends[:0]
	for i, room := 0, 0; i < n; i++ {
		if i == room {
			k := grow(n, i)
			d.Nets = slices.Grow(d.Nets, k)
			p.ends = slices.Grow(p.ends, k)
			room += k
		}
		if err := p.next(); err != nil {
			return err
		}
		f := p.f
		if len(f) < 4 {
			return p.errf("net wants >=4 fields, got %v", strs(f))
		}
		clock := view(f[1]) == "1"
		np, err := strconv.Atoi(view(f[2]))
		if err != nil || np < 1 || len(f) != 3+np {
			return p.errf("bad net pin count %v", strs(f))
		}
		pins := p.pins[:0]
		for _, ref := range f[3:] {
			pin, err := p.pinRef(ref)
			if err != nil {
				return err
			}
			pins = append(pins, pin)
		}
		p.pins = pins
		p.names = append(p.names, f[0]...)
		p.ends = append(p.ends, len(p.names))
		nid := d.Connect("", pins[0], pins[1:]...)
		d.Nets[nid].IsClock = clock
	}
	p.sectionNames(func(i int, name string) { d.Nets[base+i].Name = name })
	return nil
}

// sectionNames copies the section's names into one string and hands set
// each name, cut at its end, with its index in the section.
func (p *parser) sectionNames(set func(i int, name string)) {
	all := string(p.names)
	start := 0
	for i, end := range p.ends {
		set(i, all[start:end])
		start = end
	}
}

// pinRef resolves a <cell>:<pin> reference.
func (p *parser) pinRef(b []byte) (netlist.PinID, error) {
	d := p.d
	i := bytes.IndexByte(b, ':')
	if i < 0 {
		return netlist.NoPin, p.errf("bad pin ref %q", b)
	}
	c, err1 := strconv.Atoi(view(b[:i]))
	k, err2 := strconv.Atoi(view(b[i+1:]))
	if err1 != nil || err2 != nil {
		return netlist.NoPin, p.errf("bad pin ref %q", b)
	}
	if c < 0 || c >= len(d.Cells) {
		return netlist.NoPin, p.errf("pin ref %q: cell out of range", b)
	}
	if k < 0 || k >= len(d.Cells[c].Pins) {
		return netlist.NoPin, p.errf("pin ref %q: pin out of range", b)
	}
	return d.Cells[c].Pins[k], nil
}

// grow is how many more entries a section declared to hold n of them
// reserves once its body has supplied i: maxReserve at first, then three
// times what the body has supplied, never past n. The declared count thus
// sizes the design's slices in a few steps (three for up to 32,768 entries),
// while a count the body does not back reserves at most maxReserve entries,
// or four times what the body held.
func grow(n, i int) int { return min(n-i, max(3*i, maxReserve)) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Byte classes for fields.
const (
	fieldByte = iota // an ASCII byte that is not white space
	spaceByte        // ASCII white space
	runeByte         // a byte of a non-ASCII rune, or of invalid UTF-8
)

var byteClass = func() (c [256]uint8) {
	for _, b := range []byte("\t\n\v\f\r ") {
		c[b] = spaceByte
	}
	for b := utf8.RuneSelf; b < 256; b++ {
		c[b] = runeByte
	}
	return c
}()

// fields appends the fields of b to f, cut as strings.Fields cuts them: at
// ASCII white space and, in a line that is not all ASCII, at any rune
// unicode.IsSpace accepts, an invalid UTF-8 byte being a one-byte rune that
// is not white space.
func fields(f [][]byte, b []byte) [][]byte {
	n, start := len(f), -1
	for i, c := range b {
		switch byteClass[c] {
		case fieldByte:
			if start < 0 {
				start = i
			}
		case spaceByte:
			if start >= 0 {
				f = append(f, b[start:i])
				start = -1
			}
		case runeByte:
			return fieldsFunc(f[:n], b)
		}
	}
	if start >= 0 {
		f = append(f, b[start:])
	}
	return f
}

// fieldsFunc is fields for a line that is not all ASCII.
func fieldsFunc(f [][]byte, b []byte) [][]byte {
	start := -1
	for i := 0; i < len(b); {
		r, size := rune(b[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(b[i:])
		}
		if sp := unicode.IsSpace(r); !sp && start < 0 {
			start = i
		} else if sp && start >= 0 {
			f = append(f, b[start:i])
			start = -1
		}
		i += size
	}
	if start >= 0 {
		f = append(f, b[start:])
	}
	return f
}

// view returns b as a string without copying it. The string aliases the
// read buffer, so it must not outlive the line: it is only parsed, compared
// or formatted on the spot.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// strs copies fields into strings, for an error message.
func strs(f [][]byte) []string {
	out := make([]string, len(f))
	for i, b := range f {
		out[i] = string(b)
	}
	return out
}
