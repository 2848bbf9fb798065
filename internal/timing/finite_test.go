package timing_test

import (
	"math"
	"strings"
	"testing"

	"iterskew/internal/delay"
	"iterskew/internal/fuzz"
	"iterskew/internal/netlist"
	"iterskew/internal/timing"
)

// TestCompileRejectsNonFinite: a cell placed where the wire model overflows,
// or at a NaN or infinite coordinate, fails Compile instead of yielding a
// graph whose arrivals and slacks are NaN or ±Inf.
func TestCompileRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name string
		kind netlist.CellKind
		x    float64
	}{
		{"ff-1e308", netlist.KindFF, 1e308},
		{"ff-inf", netlist.KindFF, math.Inf(1)},
		{"ff-nan", netlist.KindFF, math.NaN()},
		{"lcb-1e308", netlist.KindLCB, 1e308},
		{"lcb-nan", netlist.KindLCB, math.NaN()},
		{"root-nan", netlist.KindClockRoot, math.NaN()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := fuzz.Generate(fuzz.FromSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := timing.Compile(d, delay.Default()); err != nil {
				t.Fatalf("unmodified design: %v", err)
			}
			for i := range d.Cells {
				if d.Cells[i].Type.Kind == tc.kind {
					d.Cells[i].Pos.X = tc.x
					break
				}
			}
			_, err = timing.Compile(d, delay.Default())
			if err == nil || !strings.HasPrefix(err.Error(), "timing: ") {
				t.Fatalf("Compile = %v, want a timing error", err)
			}
		})
	}
}
