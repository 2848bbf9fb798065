package graphio_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"iterskew/internal/core"
	"iterskew/internal/delay"
	"iterskew/internal/fuzz"
	"iterskew/internal/graphio"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

func mustCompile(t testing.TB, seed int64) (*netlist.Design, delay.Model, *timing.Graph) {
	t.Helper()
	d, err := fuzz.Generate(fuzz.FromSeed(seed))
	if err != nil {
		t.Fatalf("seed %d: generate: %v", seed, err)
	}
	m := delay.Default()
	g, err := timing.Compile(d, m)
	if err != nil {
		t.Fatalf("seed %d: compile: %v", seed, err)
	}
	return d, m, g
}

func encode(t testing.TB, g *timing.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graphio.Write(&buf, g); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

// requireSlabsEqual asserts two graphs expose identical compiled slabs,
// snapshot floats bit for bit.
func requireSlabsEqual(t testing.TB, got, want *timing.Graph) {
	t.Helper()
	gs, ws := got.Slabs(), want.Slabs()
	cmpI32 := func(name string, g, w []int32) {
		if len(g) != len(w) {
			t.Fatalf("%s: len %d != %d", name, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s[%d]: %d != %d", name, i, g[i], w[i])
			}
		}
	}
	cmpF64 := func(name string, g, w []float64) {
		if len(g) != len(w) {
			t.Fatalf("%s: len %d != %d", name, len(g), len(w))
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s[%d]: %v != %v", name, i, g[i], w[i])
			}
		}
	}
	if gs.MaxLvl != ws.MaxLvl {
		t.Fatalf("maxLvl: %d != %d", gs.MaxLvl, ws.MaxLvl)
	}
	for i := range ws.InData {
		if gs.InData[i] != ws.InData[i] {
			t.Fatalf("inData[%d]: %v != %v", i, gs.InData[i], ws.InData[i])
		}
	}
	cmpI32("level", gs.Level, ws.Level)
	if len(gs.Order) != len(ws.Order) {
		t.Fatalf("order: len %d != %d", len(gs.Order), len(ws.Order))
	}
	for i := range ws.Order {
		if gs.Order[i] != ws.Order[i] {
			t.Fatalf("order[%d]: %d != %d", i, gs.Order[i], ws.Order[i])
		}
	}
	cmpI32("fwdOff", gs.FwdOff, ws.FwdOff)
	cmpI32("bwdOff", gs.BwdOff, ws.BwdOff)
	cmpI32("bucketOff", gs.BucketOff, ws.BucketOff)
	cmpI32("ffIdx", gs.FFIdx, ws.FFIdx)
	if len(gs.FwdArc) != len(ws.FwdArc) || len(gs.BwdArc) != len(ws.BwdArc) {
		t.Fatalf("arc counts differ: fwd %d/%d bwd %d/%d",
			len(gs.FwdArc), len(ws.FwdArc), len(gs.BwdArc), len(ws.BwdArc))
	}
	for i := range ws.FwdArc {
		if gs.FwdArc[i] != ws.FwdArc[i] {
			t.Fatalf("fwdArc[%d]: %+v != %+v", i, gs.FwdArc[i], ws.FwdArc[i])
		}
	}
	for i := range ws.BwdArc {
		if gs.BwdArc[i] != ws.BwdArc[i] {
			t.Fatalf("bwdArc[%d]: %+v != %+v", i, gs.BwdArc[i], ws.BwdArc[i])
		}
	}
	if len(gs.Endpoints) != len(ws.Endpoints) {
		t.Fatalf("endpoints: len %d != %d", len(gs.Endpoints), len(ws.Endpoints))
	}
	for i := range ws.Endpoints {
		if gs.Endpoints[i] != ws.Endpoints[i] {
			t.Fatalf("endpoints[%d]: %+v != %+v", i, gs.Endpoints[i], ws.Endpoints[i])
		}
	}
	for i := range ws.EndpointOf {
		if gs.EndpointOf[i] != ws.EndpointOf[i] {
			t.Fatalf("endpointOf[%d]: %d != %d", i, gs.EndpointOf[i], ws.EndpointOf[i])
		}
	}
	cmpF64("snapAtMin", gs.SnapAtMin, ws.SnapAtMin)
	cmpF64("snapAtMax", gs.SnapAtMax, ws.SnapAtMax)
	cmpF64("snapReqMin", gs.SnapReqMin, ws.SnapReqMin)
	cmpF64("snapReqMax", gs.SnapReqMax, ws.SnapReqMax)
	cmpF64("snapBaseLat", gs.SnapBaseLat, ws.SnapBaseLat)
	cmpF64("snapDIn", gs.SnapDIn, ws.SnapDIn)
	if gs.SnapStats != ws.SnapStats {
		t.Fatalf("snapStats: %+v != %+v", gs.SnapStats, ws.SnapStats)
	}
}

// requireSameSchedule asserts two graphs yield bitwise-identical scheduling
// results.
func requireSameSchedule(t testing.TB, got, want *timing.Graph) {
	t.Helper()
	ra, ea := core.Schedule(got.NewState(), core.Options{StallRounds: -1})
	rb, eb := core.Schedule(want.NewState(), core.Options{StallRounds: -1})
	if (ea == nil) != (eb == nil) {
		t.Fatalf("schedule errors diverge: %v vs %v", ea, eb)
	}
	if ea != nil {
		return
	}
	if len(ra.Target) != len(rb.Target) {
		t.Fatalf("target count: %d != %d", len(ra.Target), len(rb.Target))
	}
	for c, v := range rb.Target {
		if math.Float64bits(ra.Target[c]) != math.Float64bits(v) {
			t.Fatalf("target[%d]: %v != %v", c, ra.Target[c], v)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			d, m, g := mustCompile(t, seed)
			blob := encode(t, g)

			wantHash, err := graphio.HashOf(d, m)
			if err != nil {
				t.Fatalf("HashOf: %v", err)
			}

			// Full read: reconstructs the design from the embedded netlist.
			rg, h, err := graphio.Read(bytes.NewReader(blob))
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if h != wantHash {
				t.Fatalf("hash: %s != %s", h, wantHash)
			}
			requireSlabsEqual(t, rg, g)
			requireSameSchedule(t, rg, g)

			// ReadFor: decode against the original design, skipping the
			// netlist parse. The returned graph must alias d.
			fg, err := graphio.ReadFor(bytes.NewReader(blob), d, m)
			if err != nil {
				t.Fatalf("ReadFor: %v", err)
			}
			if fg.Design() != d {
				t.Fatalf("ReadFor graph does not alias the given design")
			}
			requireSlabsEqual(t, fg, g)
			requireSameSchedule(t, fg, g)
		})
	}
}

func TestHashBindsInputs(t *testing.T) {
	d, m, _ := mustCompile(t, 3)
	h1, err := graphio.HashOf(d, m)
	if err != nil {
		t.Fatal(err)
	}
	m2 := m
	m2.RWire *= 2
	h2, err := graphio.HashOf(d, m2)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatalf("model change did not change the hash")
	}
	d2 := d.Clone()
	d2.Period += 1
	h3, err := graphio.HashOf(d2, m)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h3 {
		t.Fatalf("netlist change did not change the hash")
	}
	if len(h1.String()) != 64 {
		t.Fatalf("hash hex length %d, want 64", len(h1.String()))
	}
}

func TestReadForRejectsMismatchedInputs(t *testing.T) {
	d, m, g := mustCompile(t, 5)
	blob := encode(t, g)

	m2 := m
	m2.CWire *= 3
	if _, err := graphio.ReadFor(bytes.NewReader(blob), d, m2); err == nil {
		t.Fatalf("ReadFor accepted a different delay model")
	}
	d2 := d.Clone()
	d2.Period *= 2
	if _, err := graphio.ReadFor(bytes.NewReader(blob), d2, m); err == nil {
		t.Fatalf("ReadFor accepted a different design")
	}
}

// refit replaces the CRC trailer so corruption tests exercise the checks
// behind it rather than the checksum itself.
func refit(b []byte) []byte {
	body := b[:len(b)-4]
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

func mustFailRead(t *testing.T, name string, blob []byte) {
	t.Helper()
	if _, _, err := graphio.Read(bytes.NewReader(blob)); err == nil {
		t.Fatalf("%s: Read accepted a corrupt file", name)
	}
}

func TestCorruptionRejected(t *testing.T) {
	_, _, g := mustCompile(t, 7)
	blob := encode(t, g)

	// Raw bit flip anywhere fails the checksum.
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	mustFailRead(t, "bit flip", flipped)

	// Bad magic (checksum refitted so the magic check itself fires).
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	mustFailRead(t, "magic", refit(bad))

	// Unsupported version.
	bad = append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[4:], 99)
	mustFailRead(t, "version", refit(bad))

	// Header hash that does not match the embedded netlist.
	bad = append([]byte(nil), blob...)
	bad[8] ^= 0xff
	mustFailRead(t, "hash", refit(bad))

	// Truncated checksum trailer.
	mustFailRead(t, "no trailer", blob[:len(blob)-2])

	// Empty and tiny files.
	mustFailRead(t, "empty", nil)
	mustFailRead(t, "tiny", blob[:10])
}

// TestVersion2Rejected: a version-2 artifact stored sha256 of the netlist
// text as its hash, so it must fail on its version, not on a hash mismatch.
func TestVersion2Rejected(t *testing.T) {
	d, m, g := mustCompile(t, 6)
	blob := encode(t, g)
	binary.LittleEndian.PutUint32(blob[4:], 2)
	blob = refit(blob)
	const want = "unsupported version 2 (want 3)"
	if _, _, err := graphio.Read(bytes.NewReader(blob)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Read: %v, want %q", err, want)
	}
	h, err := graphio.HashOf(d, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graphio.DecodeVerified(blob, d, m, h); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("DecodeVerified: %v, want %q", err, want)
	}
}

// sectionBoundaries walks the section headers and returns every offset at
// which a section begins, plus the offset just past the last section.
func sectionBoundaries(t *testing.T, blob []byte) []int {
	t.Helper()
	body := blob[:len(blob)-4]
	const header = 4 + 4 + 32
	offs := []int{header}
	off := header
	for off < len(body) {
		if off+16 > len(body) {
			t.Fatalf("malformed section header at %d", off)
		}
		n := binary.LittleEndian.Uint64(body[off+8:])
		off = (off + 16 + int(n) + 7) &^ 7
		offs = append(offs, off)
	}
	if off != len(body) {
		t.Fatalf("sections overrun body: %d != %d", off, len(body))
	}
	return offs
}

func TestTruncationAtEverySlabBoundary(t *testing.T) {
	_, _, g := mustCompile(t, 11)
	blob := encode(t, g)
	offs := sectionBoundaries(t, blob)
	if len(offs) < 20 {
		t.Fatalf("expected >=20 section boundaries, found %d", len(offs))
	}
	for i, off := range offs[:len(offs)-1] {
		// Cut exactly at the boundary, mid-header, and mid-payload; refit
		// the checksum each time so the per-section checks are what reject
		// the file, not the CRC.
		for _, cut := range []int{off, off + 6, off + 13} {
			if cut > len(blob)-4 {
				continue
			}
			trunc := append([]byte(nil), blob[:cut]...)
			name := fmt.Sprintf("section%d-cut%d", i+1, cut-off)
			mustFailRead(t, name, refit(trunc))
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	_, _, g := mustCompile(t, 2)
	blob := encode(t, g)
	bad := append([]byte(nil), blob[:len(blob)-4]...)
	bad = append(bad, 0xde, 0xad, 0xbe, 0xef) // garbage after the last section
	bad = append(bad, 0, 0, 0, 0)             // placeholder trailer for refit
	mustFailRead(t, "trailing bytes", refit(bad))
}

func TestReadRejectsDoctoredNetlist(t *testing.T) {
	_, _, g := mustCompile(t, 4)
	blob := encode(t, g)
	// Tamper with the embedded netlist payload (flip a digit of the period
	// line) and refit the CRC: Read must notice the header hash no longer
	// matches the payload.
	idx := bytes.Index(blob, []byte("period "))
	if idx < 0 {
		t.Fatalf("no period line in embedded netlist")
	}
	bad := append([]byte(nil), blob...)
	for i := idx + 7; i < len(bad); i++ {
		if bad[i] >= '0' && bad[i] <= '8' {
			bad[i]++
			break
		}
	}
	_, _, err := graphio.Read(bytes.NewReader(refit(bad)))
	if err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("doctored netlist not caught by hash check: %v", err)
	}
}

func FuzzGraphCodec(f *testing.F) {
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		d, err := fuzz.Generate(fuzz.FromSeed(seed))
		if err != nil {
			t.Skip()
		}
		m := delay.Default()
		g, err := timing.Compile(d, m)
		if err != nil {
			t.Skip()
		}
		blob := encode(t, g)
		rg, _, err := graphio.Read(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		requireSlabsEqual(t, rg, g)
		requireSameSchedule(t, rg, g)
		fg, err := graphio.ReadFor(bytes.NewReader(blob), d, m)
		if err != nil {
			t.Fatalf("ReadFor: %v", err)
		}
		requireSlabsEqual(t, fg, g)
	})
}
