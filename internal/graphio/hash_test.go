package graphio_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/delay"
	"iterskew/internal/fuzz"
	"iterskew/internal/graphio"
	"iterskew/internal/netio"
	"iterskew/internal/netlist"
)

// hashDesign is the design a FuzzHashMatchesText input starts from: a
// superblue profile at scale 0.002 when profile names one, otherwise an
// internal/fuzz netlist.
func hashDesign(t *testing.T, profile uint8, seed int64) *netlist.Design {
	t.Helper()
	names := bench.SuperblueNames()
	var d *netlist.Design
	var err error
	if int(profile) < len(names) {
		p, perr := bench.Superblue(names[profile], 0.002)
		if perr != nil {
			t.Fatal(perr)
		}
		p.Seed += seed
		d, err = bench.Generate(p)
	} else {
		d, err = fuzz.Generate(fuzz.FromSeed(seed))
	}
	if err != nil {
		t.Skip()
	}
	return d
}

// renames are the names a rename mutation gives: plain ones, and ones Write
// sanitizes (white space, U+00A0, a leading '#', the empty name), some of
// which sanitize to each other.
var renames = []string{"x", "x y", "x_y", "x\u00a0y", "#x", "_x", "", "_", "x\ty"}

// textMutations each turn a and b, two clones of one design, into a pair
// that differs in one field (or, by chance, not at all). Every one keeps the
// design valid, so b also survives Read(Write(b)).
var textMutations = []struct {
	name string
	fn   func(a, b *netlist.Design, pick uint32)
}{
	{"coordinate ulp", func(_, b *netlist.Design, pick uint32) {
		c := &b.Cells[int(pick/4)%len(b.Cells)]
		v := &c.Pos.X
		if pick&1 != 0 {
			v = &c.Pos.Y
		}
		dir := math.Inf(1)
		if pick&2 != 0 {
			dir = math.Inf(-1)
		}
		*v = math.Nextafter(*v, dir)
	}},
	{"negative zero", func(a, b *netlist.Design, pick uint32) {
		k := int(pick/2) % len(b.Cells)
		if pick&1 == 0 {
			a.Cells[k].Pos.X, b.Cells[k].Pos.X = 0, math.Copysign(0, -1)
		} else {
			a.Cells[k].Pos.Y, b.Cells[k].Pos.Y = 0, math.Copysign(0, -1)
		}
	}},
	{"cell rename", func(_, b *netlist.Design, pick uint32) {
		b.Cells[int(pick/16)%len(b.Cells)].Name = renames[int(pick%16)%len(renames)]
	}},
	{"net rename", func(_, b *netlist.Design, pick uint32) {
		b.Nets[int(pick/16)%len(b.Nets)].Name = renames[int(pick%16)%len(renames)]
	}},
	{"clock flag", func(_, b *netlist.Design, pick uint32) {
		n := &b.Nets[int(pick)%len(b.Nets)]
		n.IsClock = !n.IsClock
	}},
	{"sink swap", func(_, b *netlist.Design, pick uint32) {
		for k := range b.Nets {
			n := &b.Nets[(int(pick/64)+k)%len(b.Nets)]
			if len(n.Sinks) >= 2 {
				i, j := int(pick%8)%len(n.Sinks), int(pick/8%8)%len(n.Sinks)
				n.Sinks[i], n.Sinks[j] = n.Sinks[j], n.Sinks[i]
				return
			}
		}
	}},
	{"port delay", func(_, b *netlist.Design, pick uint32) {
		c := netlist.CellID(int(pick/4) % len(b.Cells))
		m := &b.InDelay
		if pick&1 != 0 {
			m = &b.OutDelay
		}
		v, ok := (*m)[c]
		switch {
		case !ok:
			v = float64(pick % 97)
		case pick&2 != 0:
			v = math.Nextafter(v, math.Inf(1))
		}
		if *m == nil {
			*m = map[netlist.CellID]float64{}
		}
		(*m)[c] = v
	}},
	{"period ulp", func(_, b *netlist.Design, pick uint32) {
		dir := math.Inf(1)
		if pick&1 != 0 {
			dir = math.Inf(-1)
		}
		b.Period = math.Nextafter(b.Period, dir)
	}},
	{"lcb fanout", func(_, b *netlist.Design, _ uint32) { b.LCBMaxFanout++ }},
}

func writeText(t *testing.T, d *netlist.Design) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := netio.Write(&buf, d); err != nil {
		t.Fatalf("write: %v", err)
	}
	return buf.Bytes()
}

func mustHash(t *testing.T, d *netlist.Design, m delay.Model) graphio.Hash {
	t.Helper()
	h, err := graphio.HashOf(d, m)
	if err != nil {
		t.Fatalf("HashOf: %v", err)
	}
	return h
}

// FuzzHashMatchesText holds HashOf to netio.Write's text: one mutation of a
// design changes the hash if and only if it changes the text, and a design
// read back from its own text hashes as the original.
func FuzzHashMatchesText(f *testing.F) {
	for mut := range textMutations {
		for profile := uint8(0); profile < 9; profile++ {
			f.Add(profile, int64(mut), uint8(mut), uint32(profile)*2654435761)
		}
		for pick := range renames {
			f.Add(uint8(8), int64(pick), uint8(mut), uint32(pick))
		}
	}
	m := delay.Default()
	f.Fuzz(func(t *testing.T, profile uint8, seed int64, mut uint8, pick uint32) {
		base := hashDesign(t, profile%9, seed)
		mu := textMutations[int(mut)%len(textMutations)]
		a, b := base.Clone(), base.Clone()
		mu.fn(a, b, pick)

		textChanged := !bytes.Equal(writeText(t, a), writeText(t, b))
		if hashChanged := mustHash(t, a, m) != mustHash(t, b, m); hashChanged != textChanged {
			t.Fatalf("%s: text changed %v, hash changed %v", mu.name, textChanged, hashChanged)
		}

		back, err := netio.Read(bytes.NewReader(writeText(t, b)))
		if err != nil {
			t.Fatalf("%s: read back: %v", mu.name, err)
		}
		if mustHash(t, back, m) != mustHash(t, b, m) {
			t.Fatalf("%s: HashOf(Read(Write(d))) != HashOf(d)", mu.name)
		}
	})
}

// TestHashAllocsIndependentOfSize locks the streaming: HashOf walks the
// design through a bounded buffer, so a design 100 times larger costs no
// more allocations, and it never holds the design's text. A buffer holding
// the whole text would be one allocation too, so the test also bounds the
// bytes: under half the text's length on the large design, where such a
// buffer is at least the whole text.
func TestHashAllocsIndependentOfSize(t *testing.T) {
	m := delay.Default()
	cost := func(ffs int) (cells, text int, allocs, bytes float64) {
		p := bench.Profile{Name: "allocs", FFs: ffs, Seed: 5}
		p.Defaults()
		d, err := bench.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(5, func() { mustHash(t, d, m) })
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			mustHash(t, d, m)
		}
		runtime.ReadMemStats(&after)
		return len(d.Cells), len(writeText(t, d)), allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallCells, _, smallAllocs, _ := cost(12)
	bigCells, bigText, bigAllocs, bigBytes := cost(1400)
	if smallCells > 200 || bigCells < 10000 {
		t.Fatalf("designs of %d and %d cells, want at most 200 and at least 10,000", smallCells, bigCells)
	}
	if smallAllocs != bigAllocs {
		t.Fatalf("HashOf allocates %v times on %d cells but %v times on %d cells", smallAllocs, smallCells, bigAllocs, bigCells)
	}
	if bigBytes >= float64(bigText)/2 {
		t.Fatalf("HashOf allocates %.0f bytes on %d cells, whose text is %d bytes", bigBytes, bigCells, bigText)
	}
}
