package netio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/netlist"
)

// checkMatchesRef fails t unless Read and readRef agree on text: both return
// deep-equal designs, or errors with the same text. The one difference
// allowed is Read's rejection of a NaN or ±Inf: its error must then say
// "non-finite", its line must hold a field strconv.ParseFloat reads as
// non-finite, and readRef must accept the text or fail no earlier.
func checkMatchesRef(t testing.TB, text []byte) {
	t.Helper()
	got, err := Read(bytes.NewReader(text))
	want, werr := readRef(bytes.NewReader(text))
	switch {
	case err == nil && werr == nil:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("designs differ on %q", clip(text))
		}
		return
	case err != nil && werr != nil && err.Error() == werr.Error():
		return
	case err != nil && strings.Contains(err.Error(), "non-finite"):
		l := errLine(t, err)
		if nonFiniteField(text, l) && (werr == nil || errLine(t, werr) >= l) {
			return
		}
	}
	t.Fatalf("Read: %v\nreadRef: %v\ninput: %q", err, werr, clip(text))
}

// clip shortens an input for a failure message.
func clip(text []byte) []byte {
	if len(text) > 300 {
		return text[:300]
	}
	return text
}

// errLine is the line number a netio error names.
func errLine(t testing.TB, err error) int {
	t.Helper()
	var l int
	if _, serr := fmt.Sscanf(err.Error(), "netio: line %d:", &l); serr != nil {
		t.Fatalf("error %q names no line", err)
	}
	return l
}

// nonFiniteField reports whether line l (1-based, as bufio.ScanLines counts)
// of text has a field that strconv.ParseFloat reads as NaN or ±Inf.
func nonFiniteField(text []byte, l int) bool {
	lines := bytes.Split(text, []byte("\n"))
	if l < 1 || l > len(lines) {
		return false
	}
	for _, f := range strings.Fields(string(lines[l-1])) {
		if v, err := strconv.ParseFloat(f, 64); err == nil && !finite(v) {
			return true
		}
	}
	return false
}

// profileTexts serializes each of the eight superblue profiles at a small
// scale, with a port delay on each side (the generator sets the die).
func profileTexts(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, name := range bench.SuperblueNames() {
		p, err := bench.Superblue(name, 0.0001)
		if err != nil {
			t.Fatal(err)
		}
		d, err := bench.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		d.SetInputDelay(d.InPorts[0], 17.25)
		d.SetOutputDelay(d.OutPorts[len(d.OutPorts)-1], 3.5)
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// inserts are the byte strings a mutation splices in: white space that
// strings.Fields cuts at (ASCII and not), invalid UTF-8, a comment mark,
// signs, numbers past int64, and numbers strconv.ParseFloat reads as NaN or
// ±Inf, or rejects as out of range.
var inserts = []string{
	"\r", "\v", "\f", "\u0085", "\u00a0", "\u2028", "\xff", "\xc2", "\xe2\x80",
	"#", "+", "-", "12345678901234567890", "-98765432109876543210",
	"NaN", "Inf", "+Inf", "-inf", "infinity", "1e308", "1e400", " ", "\n",
}

// mutate applies one to three seeded edits to a copy of text: a byte flip,
// a truncation, an insert, or a field replaced by an insert.
func mutate(rng *rand.Rand, text []byte) []byte {
	b := append([]byte(nil), text...)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		if len(b) == 0 {
			b = append(b, inserts[rng.Intn(len(inserts))]...)
			continue
		}
		i := rng.Intn(len(b))
		ins := inserts[rng.Intn(len(inserts))]
		switch rng.Intn(4) {
		case 0:
			b[i] ^= byte(1 << rng.Intn(8))
		case 1:
			b = b[:i]
		case 2:
			b = append(b[:i], append([]byte(ins), b[i:]...)...)
		case 3:
			// Replace the field around i, if i is inside one.
			s, e := i, i
			for s > 0 && b[s-1] != ' ' && b[s-1] != '\n' {
				s--
			}
			for e < len(b) && b[e] != ' ' && b[e] != '\n' {
				e++
			}
			b = append(b[:s], append([]byte(ins), b[e:]...)...)
		}
	}
	return b
}

// TestReadMatchesReference holds Read to readRef on the eight profiles, the
// fuzz seeds, and 20,000 seeded mutations of them, in two parallel halves.
// The mutations take the inputs in turn, except that one in a hundred takes
// the rich fuzz seed, a design ten times a profile's size.
func TestReadMatchesReference(t *testing.T) {
	small := profileTexts(t)
	var large [][]byte
	for _, s := range fuzzSeeds() {
		if len(s) > 64<<10 {
			large = append(large, []byte(s))
		} else {
			small = append(small, []byte(s))
		}
	}
	for _, text := range append(small, large...) {
		checkMatchesRef(t, text)
	}
	for half := int64(0); half < 2; half++ {
		t.Run(fmt.Sprintf("mutations%d", half), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(half))
			for i := 0; i < 10000; i++ {
				base := small[i%len(small)]
				if i%100 == 0 && len(large) > 0 {
					base = large[i/100%len(large)]
				}
				checkMatchesRef(t, mutate(rng, base))
			}
		})
	}
}

// TestReadRejectsNonFinite: a NaN or ±Inf in any numeric field is an error
// that names the field's line.
func TestReadRejectsNonFinite(t *testing.T) {
	const head = "iterskew-netlist v1\n"
	cases := []string{
		"period NaN\nend\n",
		"portlatency +Inf\nend\n",
		"maxdisp -infinity\nend\n",
		"lcbmaxfanout nan\nend\n",
		"die 0 0 Inf 10\nend\n",
		"cells inf\nend\n",
		"nets NaN\nend\n",
		"cells 1\nINV g NaN 0\nend\n",
		"cells 1\nINV g 0 -Inf\nend\n",
		"cells 1\nPORTIN p 0 0\nindelay 0 NaN\nend\n",
		"cells 1\nPORTOUT p 0 0\noutdelay 0 Inf\nend\n",
	}
	for _, body := range cases {
		text := head + body
		_, err := Read(strings.NewReader(text))
		if err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%q: err = %v, want a non-finite error", text, err)
			continue
		}
		if l := errLine(t, err); !nonFiniteField([]byte(text), l) {
			t.Errorf("%q: error %q names line %d", text, err, l)
		}
	}
}

// TestReadLongNetLine: a net line far longer than the read buffer parses as
// readRef parses it.
func TestReadLongNetLine(t *testing.T) {
	const sinks = 20000
	var b strings.Builder
	fmt.Fprintf(&b, "iterskew-netlist v1\ncells %d\n", sinks+1)
	for i := 0; i <= sinks; i++ {
		fmt.Fprintf(&b, "INV g%d %d 0\n", i, i)
	}
	fmt.Fprintf(&b, "nets 2\nbig 0 %d 0:1", sinks+1)
	for i := 1; i <= sinks; i++ {
		fmt.Fprintf(&b, " %d:0", i)
	}
	b.WriteString("\nlast 0 1 1:1\nend\n")
	text := []byte(b.String())
	if line := bytes.Split(text, []byte("\n"))[sinks+4]; len(line) <= 2*readBufSize {
		t.Fatalf("net line is %d bytes, want well over the %d-byte buffer", len(line), readBufSize)
	}
	checkMatchesRef(t, text)
	d, err := Read(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nets) != 2 || len(d.Nets[0].Sinks) != sinks || d.Nets[1].Name != "last" {
		t.Fatalf("parsed %d nets, first with %d sinks", len(d.Nets), len(d.Nets[0].Sinks))
	}
}

// TestReadLineTooLong: a line of maxLine bytes or more, newline excluded,
// fails with bufio.ErrTooLong at readRef's line number; one byte shorter
// parses. Both hold with and without a final newline.
func TestReadLineTooLong(t *testing.T) {
	for _, n := range []int{maxLine - 1, maxLine} {
		for _, tail := range []string{"\nend\n", ""} {
			prefix := "iterskew-netlist v1\ndesign "
			text := make([]byte, 0, len(prefix)+n+len(tail))
			text = append(text, prefix...)
			text = append(text, bytes.Repeat([]byte{'x'}, n-len("design "))...)
			text = append(text, tail...)
			_, err := Read(bytes.NewReader(text))
			if n >= maxLine && !errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("%d-byte line, tail %q: err = %v, want bufio.ErrTooLong", n, tail, err)
			}
			if n < maxLine && errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("%d-byte line, tail %q: too long", n, tail)
			}
			checkMatchesRef(t, text)
		}
	}
}

// TestReadLineEnds: CRLF line ends, and a last line without a newline, parse
// to the same design as plain newlines.
func TestReadLineEnds(t *testing.T) {
	text := profileTexts(t)[0]
	want, err := Read(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	crlf := bytes.ReplaceAll(text, []byte("\n"), []byte("\r\n"))
	noFinal := bytes.TrimSuffix(text, []byte("\n"))
	for name, in := range map[string][]byte{"crlf": crlf, "no final newline": noFinal, "both": bytes.TrimSuffix(crlf, []byte("\r\n"))} {
		checkMatchesRef(t, in)
		got, err := Read(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: design differs from the newline-terminated parse", name)
		}
	}
}

// TestReadHugeDeclaredCount: a count the body does not hold fails as readRef
// fails, and Read allocates under 1 MB for it: the count alone reserves at
// most maxReserve entries.
func TestReadHugeDeclaredCount(t *testing.T) {
	for _, text := range []string{
		"iterskew-netlist v1\ncells 100000000\nINV g 0 0\n",
		"iterskew-netlist v1\nnets 100000000\n",
	} {
		if len(text) >= 100 {
			t.Fatalf("body is %d bytes", len(text))
		}
		checkMatchesRef(t, []byte(text))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 4
		for i := 0; i < runs; i++ {
			if _, err := Read(strings.NewReader(text)); err == nil {
				t.Fatalf("%q parsed", text)
			}
		}
		runtime.ReadMemStats(&after)
		if perRead := (after.TotalAlloc - before.TotalAlloc) / runs; perRead >= 1<<20 {
			t.Errorf("%q: Read allocated %d bytes, want under 1 MB", text, perRead)
		}
	}
}

// superblueText serializes superblue1 at the perfbench fleet's scale.
func superblueText(tb testing.TB) ([]byte, *netlist.Design) {
	tb.Helper()
	p, err := bench.Superblue("superblue1", 0.01)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := bench.Generate(p)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), d
}

// TestReadAllocs: Read allocates about one pin list per cell and one sink
// list per net, and a bounded number of other objects.
func TestReadAllocs(t *testing.T) {
	text, d := superblueText(t)
	limit := float64(len(d.Cells) + len(d.Nets) + 512)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Read(bytes.NewReader(text)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Fatalf("Read made %.0f allocations for %d cells and %d nets, want at most %.0f",
			allocs, len(d.Cells), len(d.Nets), limit)
	}
}

var (
	benchDesign *netlist.Design
	benchErr    error
)

func BenchmarkRead(b *testing.B) {
	text, _ := superblueText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDesign, benchErr = Read(bytes.NewReader(text))
	}
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}

func BenchmarkWrite(b *testing.B) {
	text, d := superblueText(b)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchErr = Write(io.Discard, d)
	}
	if benchErr != nil {
		b.Fatal(benchErr)
	}
}
