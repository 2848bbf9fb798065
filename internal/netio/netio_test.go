package netio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"iterskew/internal/bench"
	"iterskew/internal/delay"
	"iterskew/internal/timing"
)

func TestRoundTripGenerated(t *testing.T) {
	p, err := bench.Superblue("superblue18", 0.005)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if d.Stats() != d2.Stats() {
		t.Errorf("stats differ: %v vs %v", d.Stats(), d2.Stats())
	}
	if d.Period != d2.Period || d.PortLatency != d2.PortLatency {
		t.Errorf("timing env differs: %v/%v vs %v/%v", d.Period, d.PortLatency, d2.Period, d2.PortLatency)
	}
	if d.MaxDisp != d2.MaxDisp || d.LCBMaxFanout != d2.LCBMaxFanout {
		t.Error("constraints differ")
	}
	if math.Abs(d.HPWL()-d2.HPWL()) > 1e-6 {
		t.Errorf("HPWL differs: %v vs %v", d.HPWL(), d2.HPWL())
	}

	// Identical timing state after round-trip.
	tm1, err := timing.New(d, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	tm2, err := timing.New(d2, delay.Default())
	if err != nil {
		t.Fatal(err)
	}
	w1, t1 := tm1.WNSTNS(timing.Late)
	w2, t2 := tm2.WNSTNS(timing.Late)
	if math.Abs(w1-w2) > 1e-6 || math.Abs(t1-t2) > 1e-6 {
		t.Errorf("late timing differs: %v/%v vs %v/%v", w1, t1, w2, t2)
	}
	e1, te1 := tm1.WNSTNS(timing.Early)
	e2, te2 := tm2.WNSTNS(timing.Early)
	if math.Abs(e1-e2) > 1e-6 || math.Abs(te1-te2) > 1e-6 {
		t.Errorf("early timing differs: %v/%v vs %v/%v", e1, te1, e2, te2)
	}
}

func TestRoundTripPortDelays(t *testing.T) {
	p, _ := bench.Superblue("superblue18", 0.003)
	d, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	d.SetInputDelay(d.InPorts[0], 33.5)
	d.SetOutputDelay(d.OutPorts[0], 12.25)

	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.InDelay[d.InPorts[0]] != 33.5 {
		t.Errorf("indelay lost: %v", d2.InDelay)
	}
	if d2.OutDelay[d.OutPorts[0]] != 12.25 {
		t.Errorf("outdelay lost: %v", d2.OutDelay)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "not-a-netlist v1\nend\n",
		"bad type":     "iterskew-netlist v1\ncells 1\nNOPE g 0 0\nend\n",
		"bad pin ref":  "iterskew-netlist v1\ncells 1\nINV g 0 0\nnets 1\nn 0 1 0-0\nend\n",
		"pin range":    "iterskew-netlist v1\ncells 1\nINV g 0 0\nnets 1\nn 0 1 0:7\nend\n",
		"cell range":   "iterskew-netlist v1\ncells 1\nINV g 0 0\nnets 1\nn 0 1 5:0\nend\n",
		"no end":       "iterskew-netlist v1\ndesign x\n",
		"net count":    "iterskew-netlist v1\ncells 1\nINV g 0 0\nnets 1\nn 0 3 0:1\nend\n",
		"unknown word": "iterskew-netlist v1\nbogus 4\nend\n",
	}
	for name, text := range cases {
		if _, err := Read(strings.NewReader(text)); err == nil {
			t.Errorf("%s: error not detected", name)
		}
	}
}

func TestReadCommentsAndBlankLines(t *testing.T) {
	text := `iterskew-netlist v1
# a comment
design tiny

period 1000
cells 2
INV g1 0 0
INV g2 10 0
nets 1
n 0 2 0:1 1:0
end
`
	d, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Cells) != 2 || len(d.Nets) != 1 {
		t.Errorf("parsed %d cells, %d nets", len(d.Cells), len(d.Nets))
	}
	if d.Period != 1000 {
		t.Errorf("period = %v", d.Period)
	}
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"a b\tc":     "a_b_c",
		"":           "_",
		"n_12":       "n_12",
		"#n":         "_n",
		"##":         "_#",
		"a#b":        "a#b",
		"a\rb\vc\fd": "a_b_c_d",
		"a\u00a0b":   "a_b",
		"a\u2028b":   "a_b",
		"a\u0085b":   "a_b",
		"#\u3000é":   "__é",
		"é":          "é",
	} {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWriteNamesRoundTrip: a design whose names hold any rune Read cuts
// fields at, or a net name that starts with '#', writes text that Read
// accepts and that writes back byte for byte.
func TestWriteNamesRoundTrip(t *testing.T) {
	p, err := bench.Superblue("superblue18", 0.003)
	if err != nil {
		t.Fatal(err)
	}
	base, err := bench.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"#n", "a\rb", "a\u00a0b", "a\u2028b", "a\vb", "a\fb", "a\u0085b", "a b", "# c", ""} {
		d := base.Clone()
		d.Name = name
		d.Cells[3].Name = name
		d.Nets[0].Name = name
		d.Nets[len(d.Nets)-1].Name = name
		var first bytes.Buffer
		if err := Write(&first, d); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("name %q: %v", name, err)
		}
		if len(back.Nets) != len(d.Nets) || len(back.Cells) != len(d.Cells) {
			t.Fatalf("name %q: read %d cells and %d nets, wrote %d and %d", name, len(back.Cells), len(back.Nets), len(d.Cells), len(d.Nets))
		}
		if got, want := back.Nets[0].Name, sanitize(name); got != want {
			t.Errorf("name %q: net read back as %q, want %q", name, got, want)
		}
		var second bytes.Buffer
		if err := Write(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("name %q: Write → Read → Write changed the text", name)
		}
	}
}

// TestReadErrorLineNumbers asserts every parse failure pinpoints the 1-based
// line it occurred on — including truncation and scanner-level errors, which
// historically surfaced without a position.
func TestReadErrorLineNumbers(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"bad type", "iterskew-netlist v1\ncells 1\nNOPE g 0 0\nend\n", "line 3"},
		{"bad pin ref", "iterskew-netlist v1\ncells 1\nINV g 0 0\nnets 1\nn 0 1 0-0\nend\n", "line 5"},
		{"unknown word", "iterskew-netlist v1\ndesign x\nbogus 4\nend\n", "line 3"},
		{"truncated cells", "iterskew-netlist v1\ncells 2\nINV g 0 0\n", "line 3"},
		{"truncated nets", "iterskew-netlist v1\ncells 1\nINV g 0 0\nnets 1\n", "line 4"},
		{"missing end", "iterskew-netlist v1\ndesign x\nperiod 10\n", "line 3"},
		{"comments counted", "iterskew-netlist v1\n# one\n# two\nbogus\nend\n", "line 4"},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.text))
		if err == nil {
			t.Errorf("%s: error not detected", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not carry %q", tc.name, err, tc.want)
		}
	}
}

// TestReadErrorUnwraps asserts positioned errors keep their underlying cause
// reachable through errors.Is.
func TestReadErrorUnwraps(t *testing.T) {
	_, err := Read(strings.NewReader("iterskew-netlist v1\ncells 2\nINV g 0 0\n"))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation error %q does not unwrap to io.ErrUnexpectedEOF", err)
	}
}
