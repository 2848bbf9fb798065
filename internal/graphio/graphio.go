// Package graphio serializes compiled timing graphs to and from a versioned,
// length-prefixed binary format, the compiled-artifact companion to
// internal/netio's text netlists. A saved graph carries everything
// timing.Compile produces — CSR adjacency, levels, canonical order and
// buckets, endpoint tables, the pristine post-bootstrap snapshot — as flat
// little-endian slabs, plus the source netlist itself and a content hash of
// netlist + delay model. Loading is therefore O(read): no classification, no
// CSR build, no levelization, no bootstrap propagation — and the hash lets a
// loader prove the artifact matches the inputs it claims to compile.
//
// Layout:
//
//	magic "ISKG" | version u32 | content hash [32]byte
//	repeated sections, each: tag u32 | reserved u32 | length u64 | payload,
//	payload zero-padded to an 8-byte boundary
//	crc32(Castagnoli) u32 over everything before it
//
// Sections appear in a fixed order (secMeta first, secStats last); a
// truncated or bit-flipped file fails the CRC, and a file truncated at any
// slab boundary fails the per-section header check. The 8-byte payload
// alignment is what makes decoding O(read): on little-endian hosts the
// int32/float64/arc slabs are reinterpreted views of the file buffer with no
// per-element conversion at all (big-endian or misaligned hosts fall back to
// element loops).
package graphio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync/atomic"
	"unsafe"

	"iterskew/internal/delay"
	"iterskew/internal/netio"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// Hash is the sha256 content hash binding a compiled graph to its inputs:
// the netio serialization of the design, in netio.WriteBinary's form (Write's
// fields with every number in binary), plus the delay-model parameters.
type Hash [32]byte

// String returns the hash in hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// hashOps counts HashOf invocations. Hashing is the only O(design) cost left
// on the cache-hit and verified-load paths, so callers that claim to thread a
// precomputed hash through (engine.Cache.GetHashed, the serve handle lookups)
// assert against this counter that a hit really does zero hashing.
var hashOps atomic.Uint64

// HashOps returns the process-wide number of HashOf calls so far.
func HashOps() uint64 { return hashOps.Load() }

// HashOf computes the content hash of a design + delay model pair: sha256
// over netio.WriteBinary's bytes for d, streamed in bounded chunks, then the
// model's four parameters as little-endian float64s. Equal hashes therefore
// mean equal netio.Write text and an equal model; a design read back from
// its own Write text hashes as the original. It walks the whole netlist, so
// it is O(design), not O(1) — compute it once per design and reuse it (see
// ReadVerified).
func HashOf(d *netlist.Design, m delay.Model) (Hash, error) {
	hashOps.Add(1)
	hw := sha256.New()
	if err := netio.WriteBinary(hw, d); err != nil {
		return Hash{}, fmt.Errorf("graphio: hashing netlist: %w", err)
	}
	var b [32]byte
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(m.RWire))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(m.CWire))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(m.DerateEarly))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(m.DerateLate))
	hw.Write(b[:])
	var h Hash
	hw.Sum(h[:0])
	return h, nil
}

const (
	magic   = "ISKG"
	version = 3
)

// Section tags, in file order.
const (
	secMeta uint32 = iota + 1
	secNetlist
	secInData
	secLevel
	secOrder
	secFwdOff
	secFwdArc
	secBwdOff
	secBwdArc
	secEndpoints
	secEndpointOf
	secFFIdx
	secBucketOff
	secSnapAtMin
	secSnapAtMax
	secSnapReqMin
	secSnapReqMax
	secSnapBaseLat
	secSnapDIn
	secStats
)

// metaLen is the secMeta payload: six u64 counts + four f64 model params.
const metaLen = 6*8 + 4*8

// envLen is the fixed envelope before the first section: magic + version +
// content hash. It is a multiple of 8, so with 16-byte section headers and
// padded payloads every payload starts 8-aligned.
const envLen = 4 + 4 + 32

// hostLittleEndian gates the zero-copy slab paths: the format is defined
// little-endian, so only on matching hosts can slabs be raw memory views.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func init() {
	// Layout guards for the zero-copy views. These are compile-time facts
	// today; if the timing types grow, the codec must grow with them.
	if unsafe.Sizeof(timing.Arc{}) != 4 {
		panic("graphio: timing.Arc is no longer 4 bytes; update the codec")
	}
	if unsafe.Sizeof(timing.EndpointID(0)) != 4 || unsafe.Sizeof(netlist.PinID(0)) != 4 {
		panic("graphio: ID types are no longer int32; update the codec")
	}
}

// crcTable selects the Castagnoli polynomial for the file trailer: on
// amd64/arm64 it maps to the dedicated CRC32 instruction, roughly 3x the
// throughput of the IEEE CLMUL path, and the checksum is on every load's
// critical path.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func align8(n int) int { return (n + 7) &^ 7 }

// Write serializes the compiled graph to w: header, content hash (HashOf of
// the graph's design and model), the embedded source netlist as netio.Write
// text, every slab, and the CRC trailer.
func Write(w io.Writer, g *timing.Graph) error {
	d, m := g.Design(), g.Model()
	var nl bytes.Buffer
	if err := netio.Write(&nl, d); err != nil {
		return fmt.Errorf("graphio: embedding netlist: %w", err)
	}
	h, err := HashOf(d, m)
	if err != nil {
		return err
	}
	s := g.Slabs()

	e := encoder{buf: make([]byte, 0, int(g.Bytes())+nl.Len()+2048)}
	e.raw([]byte(magic))
	e.u32(version)
	e.raw(h[:])

	e.section(secMeta, metaLen, func() {
		e.u64(uint64(len(d.Pins)))
		e.u64(uint64(len(d.Cells)))
		e.u64(uint64(len(d.Nets)))
		e.u64(uint64(len(d.FFs)))
		e.u64(uint64(int64(s.MaxLvl)))
		e.u64(uint64(len(s.Order)))
		e.f64(m.RWire)
		e.f64(m.CWire)
		e.f64(m.DerateEarly)
		e.f64(m.DerateLate)
	})
	e.section(secNetlist, nl.Len(), func() { e.raw(nl.Bytes()) })
	e.section(secInData, len(s.InData), func() { e.bools(s.InData) })
	e.section(secLevel, 4*len(s.Level), func() { e.i32s(s.Level) })
	e.section(secOrder, 4*len(s.Order), func() { e.i32s(pinsAsI32(s.Order)) })
	e.section(secFwdOff, 4*len(s.FwdOff), func() { e.i32s(s.FwdOff) })
	e.section(secFwdArc, 4*len(s.FwdArc), func() { e.arcs(s.FwdArc) })
	e.section(secBwdOff, 4*len(s.BwdOff), func() { e.i32s(s.BwdOff) })
	e.section(secBwdArc, 4*len(s.BwdArc), func() { e.arcs(s.BwdArc) })
	e.section(secEndpoints, 9*len(s.Endpoints), func() {
		for i := range s.Endpoints {
			ep := &s.Endpoints[i]
			e.u32(uint32(ep.Pin))
			e.u32(uint32(ep.Cell))
			if ep.IsPort {
				e.buf = append(e.buf, 1)
			} else {
				e.buf = append(e.buf, 0)
			}
		}
	})
	e.section(secEndpointOf, 4*len(s.EndpointOf), func() { e.i32s(epAsI32(s.EndpointOf)) })
	e.section(secFFIdx, 4*len(s.FFIdx), func() { e.i32s(s.FFIdx) })
	e.section(secBucketOff, 4*len(s.BucketOff), func() { e.i32s(s.BucketOff) })
	e.section(secSnapAtMin, 8*len(s.SnapAtMin), func() { e.f64s(s.SnapAtMin) })
	e.section(secSnapAtMax, 8*len(s.SnapAtMax), func() { e.f64s(s.SnapAtMax) })
	e.section(secSnapReqMin, 8*len(s.SnapReqMin), func() { e.f64s(s.SnapReqMin) })
	e.section(secSnapReqMax, 8*len(s.SnapReqMax), func() { e.f64s(s.SnapReqMax) })
	e.section(secSnapBaseLat, 8*len(s.SnapBaseLat), func() { e.f64s(s.SnapBaseLat) })
	e.section(secSnapDIn, 8*len(s.SnapDIn), func() { e.f64s(s.SnapDIn) })
	e.section(secStats, 6*8, func() {
		st := s.SnapStats
		e.u64(uint64(st.ForwardPinVisits))
		e.u64(uint64(st.BackwardPinVisits))
		e.u64(uint64(st.FullUpdates))
		e.u64(uint64(st.IncrementalSeeds))
		e.u64(uint64(st.ExtractedEdges))
		e.u64(uint64(st.ExtractArcVisits))
	})

	e.u32(crc32.Checksum(e.buf, crcTable))
	_, err = w.Write(e.buf)
	return err
}

// pinsAsI32 reinterprets a PinID slice as its underlying int32s.
func pinsAsI32(v []netlist.PinID) []int32 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&v[0])), len(v))
}

// epAsI32 reinterprets an EndpointID slice as its underlying int32s.
func epAsI32(v []timing.EndpointID) []int32 {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&v[0])), len(v))
}

// Read deserializes a graph written by Write. After the CRC and the envelope
// it parses the embedded netlist, requires HashOf of the parsed design and
// the stored model to equal the header's hash, and validates every slab's
// structural consistency. It returns the graph and its content hash.
func Read(r io.Reader) (*timing.Graph, Hash, error) {
	dec, h, err := load(r)
	if err != nil {
		return nil, Hash{}, err
	}
	m, np, nc, nn, nf, err := dec.meta()
	if err != nil {
		return nil, Hash{}, err
	}
	nlText, err := dec.section(secNetlist)
	if err != nil {
		return nil, Hash{}, err
	}
	d, err := netio.Read(bytes.NewReader(nlText))
	if err != nil {
		return nil, Hash{}, fmt.Errorf("graphio: embedded netlist: %w", err)
	}
	got, err := HashOf(d, m)
	if err != nil {
		return nil, Hash{}, err
	}
	if got != h {
		return nil, Hash{}, fmt.Errorf("graphio: content hash mismatch: header %s, payload %s", h, got)
	}
	if len(d.Pins) != np || len(d.Cells) != nc || len(d.Nets) != nn || len(d.FFs) != nf {
		return nil, Hash{}, fmt.Errorf("graphio: meta counts do not match the embedded netlist")
	}
	g, err := dec.graph(d, m)
	if err != nil {
		return nil, Hash{}, err
	}
	return g, h, nil
}

// ReadFor deserializes a graph for an already-loaded design + model,
// skipping the embedded netlist parse: it computes HashOf(d, m) and
// delegates to ReadVerified. When loading repeatedly against one design,
// compute the hash once and call ReadVerified directly — hashing is the
// only O(design) part of a load.
func ReadFor(r io.Reader, d *netlist.Design, m delay.Model) (*timing.Graph, error) {
	want, err := HashOf(d, m)
	if err != nil {
		return nil, err
	}
	return ReadVerified(r, d, m, want)
}

// ReadVerified is the O(read) decode path: it deserializes a graph for an
// already-loaded design + model whose content hash the caller has already
// computed. The artifact's hash must equal want — this is what makes it
// trustworthy for d — and the slab view is structurally validated against d
// before the graph is returned. On little-endian hosts the decoded graph's
// slabs alias the single file buffer rather than copying it.
func ReadVerified(r io.Reader, d *netlist.Design, m delay.Model, want Hash) (*timing.Graph, error) {
	b, err := slurp(r)
	if err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return DecodeVerified(b, d, m, want)
}

// DecodeVerified is ReadVerified over an in-memory artifact. The decoded
// graph aliases b on little-endian hosts — the caller hands over ownership
// and must not modify b afterwards. This is the cheapest load path: one
// os.ReadFile plus DecodeVerified costs a single buffer fill and a checksum,
// with zero per-element decode work.
func DecodeVerified(b []byte, d *netlist.Design, m delay.Model, want Hash) (*timing.Graph, error) {
	dec, h, err := loadBytes(b)
	if err != nil {
		return nil, err
	}
	if h != want {
		return nil, fmt.Errorf("graphio: artifact hash %s does not match inputs (%s)", h, want)
	}
	fm, np, _, _, _, err := dec.meta()
	if err != nil {
		return nil, err
	}
	if fm != m {
		return nil, fmt.Errorf("graphio: artifact delay model %+v does not match %+v", fm, m)
	}
	if np != len(d.Pins) {
		return nil, fmt.Errorf("graphio: artifact has %d pins, design has %d", np, len(d.Pins))
	}
	if _, err := dec.section(secNetlist); err != nil {
		return nil, err
	}
	return dec.graph(d, m)
}

// --- encoding ---------------------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) raw(b []byte) { e.buf = append(e.buf, b...) }

func (e *encoder) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) i32s(v []int32) {
	if len(v) == 0 {
		return
	}
	if hostLittleEndian {
		e.buf = append(e.buf, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))...)
		return
	}
	for _, x := range v {
		e.u32(uint32(x))
	}
}

func (e *encoder) f64s(v []float64) {
	if len(v) == 0 {
		return
	}
	if hostLittleEndian {
		e.buf = append(e.buf, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v))...)
		return
	}
	for _, x := range v {
		e.f64(x)
	}
}

func (e *encoder) bools(v []bool) {
	for _, x := range v {
		if x {
			e.buf = append(e.buf, 1)
		} else {
			e.buf = append(e.buf, 0)
		}
	}
}

func (e *encoder) arcs(v []timing.Arc) {
	if len(v) == 0 {
		return
	}
	if hostLittleEndian {
		e.buf = append(e.buf, unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))...)
		return
	}
	for i := range v {
		e.u32(uint32(v[i].To))
	}
}

// section writes a tagged, length-prefixed section; fill must append exactly
// n payload bytes, which section then zero-pads to an 8-byte boundary so the
// next section's payload stays aligned for the zero-copy decode views.
func (e *encoder) section(tag uint32, n int, fill func()) {
	e.u32(tag)
	e.u32(0) // reserved; keeps the 16-byte header, hence payloads, 8-aligned
	e.u64(uint64(n))
	start := len(e.buf)
	fill()
	if len(e.buf)-start != n {
		panic(fmt.Sprintf("graphio: section %d wrote %d bytes, declared %d", tag, len(e.buf)-start, n))
	}
	for pad := align8(n) - n; pad > 0; pad-- {
		e.buf = append(e.buf, 0)
	}
}

// --- decoding ---------------------------------------------------------------

type decoder struct {
	b   []byte
	off int
}

// slurp reads r to EOF like io.ReadAll but sizes the buffer up front when r
// can say how big it is (bytes.Reader, strings.Reader, *os.File via Stat) —
// ReadAll's doubling growth would otherwise memmove a multi-megabyte
// artifact several times over, which dwarfs the actual decode.
func slurp(r io.Reader) ([]byte, error) {
	size := 0
	switch rr := r.(type) {
	case interface{ Len() int }:
		size = rr.Len()
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := rr.Stat(); err == nil && fi.Size() > 0 && fi.Size() < 1<<40 {
			size = int(fi.Size())
		}
	}
	b := make([]byte, 0, size+1)
	for {
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// load slurps r and verifies the envelope: magic, version, CRC trailer.
func load(r io.Reader) (*decoder, Hash, error) {
	b, err := slurp(r)
	if err != nil {
		return nil, Hash{}, fmt.Errorf("graphio: %w", err)
	}
	return loadBytes(b)
}

// loadBytes verifies the envelope of an in-memory artifact.
func loadBytes(b []byte) (*decoder, Hash, error) {
	if len(b) < envLen+4 {
		return nil, Hash{}, fmt.Errorf("graphio: file too short (%d bytes)", len(b))
	}
	body, trailer := b[:len(b)-4], b[len(b)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, Hash{}, fmt.Errorf("graphio: checksum mismatch (file %08x, computed %08x)", want, got)
	}
	if string(body[:4]) != magic {
		return nil, Hash{}, fmt.Errorf("graphio: bad magic %q", body[:4])
	}
	if v := binary.LittleEndian.Uint32(body[4:8]); v != version {
		return nil, Hash{}, fmt.Errorf("graphio: unsupported version %d (want %d)", v, version)
	}
	var h Hash
	copy(h[:], body[8:envLen])
	return &decoder{b: body, off: envLen}, h, nil
}

// section consumes the next section, which must carry the expected tag, and
// returns its payload — a view into the file buffer, not a copy.
func (d *decoder) section(want uint32) ([]byte, error) {
	if d.off+16 > len(d.b) {
		return nil, fmt.Errorf("graphio: truncated before section %d", want)
	}
	tag := binary.LittleEndian.Uint32(d.b[d.off:])
	n := binary.LittleEndian.Uint64(d.b[d.off+8:])
	d.off += 16
	if tag != want {
		return nil, fmt.Errorf("graphio: section %d out of order (found %d)", want, tag)
	}
	if n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("graphio: section %d declares %d bytes, %d remain", tag, n, len(d.b)-d.off)
	}
	p := d.b[d.off : d.off+int(n)]
	end := align8(d.off + int(n))
	if end > len(d.b) {
		return nil, fmt.Errorf("graphio: section %d padding truncated", tag)
	}
	d.off = end
	return p, nil
}

// meta parses the secMeta section.
func (d *decoder) meta() (m delay.Model, np, nc, nn, nf int, err error) {
	p, err := d.section(secMeta)
	if err != nil {
		return m, 0, 0, 0, 0, err
	}
	if len(p) != metaLen {
		return m, 0, 0, 0, 0, fmt.Errorf("graphio: meta section is %d bytes, want %d", len(p), metaLen)
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }
	np, nc, nn, nf = int(u(0)), int(u(1)), int(u(2)), int(u(3))
	m.RWire = math.Float64frombits(u(6))
	m.CWire = math.Float64frombits(u(7))
	m.DerateEarly = math.Float64frombits(u(8))
	m.DerateLate = math.Float64frombits(u(9))
	return m, np, nc, nn, nf, nil
}

// viewable reports whether p can be reinterpreted in place at the given
// element alignment.
func viewable(p []byte, align uintptr) bool {
	return hostLittleEndian && uintptr(unsafe.Pointer(&p[0]))%align == 0
}

// i32view reinterprets (or, off the fast path, converts) a payload as int32s.
func i32view(p []byte) []int32 {
	n := len(p) / 4
	if n == 0 {
		return nil
	}
	if viewable(p, 4) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&p[0])), n)
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return v
}

// f64view reinterprets (or converts) a payload as float64s.
func f64view(p []byte) []float64 {
	n := len(p) / 8
	if n == 0 {
		return nil
	}
	if viewable(p, 8) {
		return unsafe.Slice((*float64)(unsafe.Pointer(&p[0])), n)
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return v
}

// arcview reinterprets (or converts) a payload as CSR arcs.
func arcview(p []byte) []timing.Arc {
	n := len(p) / 4
	if n == 0 {
		return nil
	}
	if viewable(p, 4) {
		return unsafe.Slice((*timing.Arc)(unsafe.Pointer(&p[0])), n)
	}
	v := make([]timing.Arc, n)
	for i := range v {
		v[i].To = netlist.PinID(int32(binary.LittleEndian.Uint32(p[4*i:])))
	}
	return v
}

func (d *decoder) i32s(tag uint32, want int) ([]int32, error) {
	p, err := d.sized(tag, 4*want)
	if err != nil {
		return nil, err
	}
	return i32view(p), nil
}

func (d *decoder) f64s(tag uint32, want int) ([]float64, error) {
	p, err := d.sized(tag, 8*want)
	if err != nil {
		return nil, err
	}
	return f64view(p), nil
}

func (d *decoder) bools(tag uint32, want int) ([]bool, error) {
	p, err := d.sized(tag, want)
	if err != nil {
		return nil, err
	}
	if want == 0 {
		return nil, nil
	}
	// Validate first, then alias: a []bool element is one byte holding 0 or
	// 1, exactly the wire encoding, so a validated payload needs no copy.
	for i, c := range p {
		if c > 1 {
			return nil, fmt.Errorf("graphio: section %d: bad bool byte %d at %d", tag, c, i)
		}
	}
	return unsafe.Slice((*bool)(unsafe.Pointer(&p[0])), want), nil
}

func (d *decoder) arcsSec(tag uint32) ([]timing.Arc, error) {
	p, err := d.section(tag)
	if err != nil {
		return nil, err
	}
	if len(p)%4 != 0 {
		return nil, fmt.Errorf("graphio: section %d length %d is not arc-aligned", tag, len(p))
	}
	return arcview(p), nil
}

// sized consumes a section and checks its exact payload size.
func (d *decoder) sized(tag uint32, want int) ([]byte, error) {
	p, err := d.section(tag)
	if err != nil {
		return nil, err
	}
	if len(p) != want {
		return nil, fmt.Errorf("graphio: section %d is %d bytes, want %d", tag, len(p), want)
	}
	return p, nil
}

// graph decodes every slab section and reassembles the compiled graph over
// d + m via timing.GraphFromSlabs (which performs the structural
// validation).
func (d *decoder) graph(design *netlist.Design, m delay.Model) (*timing.Graph, error) {
	np, nc, nf := len(design.Pins), len(design.Cells), len(design.FFs)
	var s timing.GraphSlabs
	var err error

	inData, err := d.bools(secInData, np)
	if err != nil {
		return nil, err
	}
	s.InData = inData
	if s.Level, err = d.i32s(secLevel, np); err != nil {
		return nil, err
	}
	s.MaxLvl = -1
	for i, in := range s.InData {
		if in && s.Level[i] > s.MaxLvl {
			s.MaxLvl = s.Level[i]
		}
	}
	orderRaw, err := d.section(secOrder)
	if err != nil {
		return nil, err
	}
	if len(orderRaw)%4 != 0 {
		return nil, fmt.Errorf("graphio: order section length %d is not pin-aligned", len(orderRaw))
	}
	if oi := i32view(orderRaw); len(oi) > 0 {
		s.Order = unsafe.Slice((*netlist.PinID)(unsafe.Pointer(unsafe.SliceData(oi))), len(oi))
	}
	if s.FwdOff, err = d.i32s(secFwdOff, np+1); err != nil {
		return nil, err
	}
	if s.FwdArc, err = d.arcsSec(secFwdArc); err != nil {
		return nil, err
	}
	if s.BwdOff, err = d.i32s(secBwdOff, np+1); err != nil {
		return nil, err
	}
	if s.BwdArc, err = d.arcsSec(secBwdArc); err != nil {
		return nil, err
	}
	epRaw, err := d.section(secEndpoints)
	if err != nil {
		return nil, err
	}
	if len(epRaw)%9 != 0 {
		return nil, fmt.Errorf("graphio: endpoint section length %d is not record-aligned", len(epRaw))
	}
	s.Endpoints = make([]timing.Endpoint, len(epRaw)/9)
	for i := range s.Endpoints {
		rec := epRaw[9*i:]
		s.Endpoints[i].Pin = netlist.PinID(int32(binary.LittleEndian.Uint32(rec)))
		s.Endpoints[i].Cell = netlist.CellID(int32(binary.LittleEndian.Uint32(rec[4:])))
		switch rec[8] {
		case 0:
		case 1:
			s.Endpoints[i].IsPort = true
		default:
			return nil, fmt.Errorf("graphio: endpoint %d: bad port flag %d", i, rec[8])
		}
	}
	eo, err := d.i32s(secEndpointOf, nc)
	if err != nil {
		return nil, err
	}
	if len(eo) > 0 {
		s.EndpointOf = unsafe.Slice((*timing.EndpointID)(unsafe.Pointer(unsafe.SliceData(eo))), len(eo))
	}
	if s.FFIdx, err = d.i32s(secFFIdx, nc); err != nil {
		return nil, err
	}
	if s.BucketOff, err = d.i32s(secBucketOff, int(s.MaxLvl)+2); err != nil {
		return nil, err
	}
	if s.SnapAtMin, err = d.f64s(secSnapAtMin, np); err != nil {
		return nil, err
	}
	if s.SnapAtMax, err = d.f64s(secSnapAtMax, np); err != nil {
		return nil, err
	}
	if s.SnapReqMin, err = d.f64s(secSnapReqMin, np); err != nil {
		return nil, err
	}
	if s.SnapReqMax, err = d.f64s(secSnapReqMax, np); err != nil {
		return nil, err
	}
	if s.SnapBaseLat, err = d.f64s(secSnapBaseLat, nf); err != nil {
		return nil, err
	}
	if s.SnapDIn, err = d.f64s(secSnapDIn, np); err != nil {
		return nil, err
	}
	stRaw, err := d.sized(secStats, 6*8)
	if err != nil {
		return nil, err
	}
	u := func(i int) int64 { return int64(binary.LittleEndian.Uint64(stRaw[8*i:])) }
	s.SnapStats = timing.Counters{
		ForwardPinVisits:  u(0),
		BackwardPinVisits: u(1),
		FullUpdates:       u(2),
		IncrementalSeeds:  u(3),
		ExtractedEdges:    u(4),
		ExtractArcVisits:  u(5),
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("graphio: %d trailing bytes after last section", len(d.b)-d.off)
	}
	return timing.GraphFromSlabs(design, m, s)
}
