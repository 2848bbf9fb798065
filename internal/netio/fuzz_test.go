package netio

import (
	"bytes"
	"strings"
	"testing"

	"iterskew/internal/bench"
)

// fuzzSeeds are the seed inputs of both fuzz targets: small hand-written
// netlists and, as a rich seed, a real serialized design.
func fuzzSeeds() []string {
	seeds := []string{
		"",
		"iterskew-netlist v1\nend\n",
		"iterskew-netlist v1\ncells 1\nINV g 0 0\nnets 1\nn 0 1 0:0\nend\n",
		"iterskew-netlist v1\ncells 2\nINV a 0 0\nINV b 1 1\nnets 1\nn 0 2 0:1 1:0\nend\n",
		"iterskew-netlist v1\ndie 0 0 10 10\nperiod 100\nindelay 0 5\nend\n",
	}
	p, err := bench.Superblue("superblue18", 0.002)
	if err == nil {
		if d, err := bench.Generate(p); err == nil {
			var buf bytes.Buffer
			if Write(&buf, d) == nil {
				seeds = append(seeds, buf.String())
			}
		}
	}
	return seeds
}

// FuzzRead: the parser must never panic and must either error or produce a
// design that validates.
func FuzzRead(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		d, err := Read(strings.NewReader(text))
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid design: %v", err)
		}
		// Round-trip: what we accepted must re-serialize and re-parse.
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatalf("Write failed on accepted design: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("round-trip failed: %v", err)
		}
	})
}

// FuzzReadMatchesReference: on any input Read returns what readRef returns,
// a deep-equal design or the same error text, except that it rejects the
// NaN and ±Inf readRef accepts.
func FuzzReadMatchesReference(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		checkMatchesRef(t, text)
	})
}
