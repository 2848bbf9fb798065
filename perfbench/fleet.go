package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"iterskew"
	"iterskew/internal/netio"
)

// design is one generated fleet member, as the program receives it.
type design struct {
	name string
	// text is the netlist in netio format: the only form of the design the
	// measured code ever sees.
	text []byte
	// The generated design's shape, for checking upload responses.
	cells, ffs, nets int
	period           float64
}

// variants is how many designs the fleet generates from each profile. The
// op costs of one profile vary a lot from seed to seed, so medians and
// tails over the fleet's op mix move with the seed less the more designs the
// mix holds.
const variants = 2

// variantStride separates the generator seeds of a profile's variants.
const variantStride = 1000

// makeFleet generates variants designs of each of the eight superblue
// profiles at scale; variant v of a profile has its generator seed offset by
// seed + v*variantStride.
func makeFleet(seed int64) ([]design, error) {
	var fl []design
	for v := int64(0); v < variants; v++ {
		for _, name := range iterskew.SuperblueNames() {
			p, err := iterskew.SuperblueProfile(name, scale)
			if err != nil {
				return nil, err
			}
			p.Seed += seed + v*variantStride
			name = fmt.Sprintf("%s/%d", name, v)
			d, err := iterskew.GenerateBenchmark(p)
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", name, err)
			}
			var buf bytes.Buffer
			if err := netio.Write(&buf, d); err != nil {
				return nil, fmt.Errorf("write %s: %w", name, err)
			}
			st := d.Stats()
			fl = append(fl, design{name: name, text: buf.Bytes(), cells: st.Cells, ffs: st.FFs, nets: st.Nets, period: d.Period})
		}
	}
	return fl, nil
}

// parseFleet reads every design's netio text.
func parseFleet(fl []design) ([]*iterskew.Design, error) {
	out := make([]*iterskew.Design, len(fl))
	for i := range fl {
		d, err := netio.Read(bytes.NewReader(fl[i].text))
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", fl[i].name, err)
		}
		out[i] = d
	}
	return out, nil
}

// outcome is what one untraced workload run measured and checked.
type outcome struct {
	setups    []float64     // seconds, one per set-up repetition
	lat       []float64     // ms, one per completed measured op
	elapsed   time.Duration // the ops_per_s denominator
	attempted int64
	failed    int64
	peakRSSMB float64
	problems  []string
	qor       map[string]float64
	counts    map[string]float64
	stealPct  float64 // CPU time the hypervisor took from this VM during the measured phase
}

// maxProblems caps the failed checks a run lists.
const maxProblems = 20

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) metrics(workload string) map[string]metric {
	return map[string]metric{
		"setup_s":     {median(o.setups), "s"},
		"peak_rss_mb": {o.peakRSSMB, "MB"},
		"ops_per_s":   {float64(len(o.lat)) / o.elapsed.Seconds(), "1/s"},
		"op_p50_ms":   {percentile(o.lat, 50), "ms"},
		"op_tail_ms":  {percentile(o.lat, tailPct[workload]), "ms"},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(v []float64) float64 { return percentile(v, 50) }

// percentile interpolates linearly between the closest ranks.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	x := p / 100 * float64(len(s)-1)
	i := int(x)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown"}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// parallel runs fn(0..n-1) on checkWorkers goroutines and returns each
// index's error.
func parallel(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < checkWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errs
}

// memSample is the runtime's allocation and GC totals at one instant.
type memSample struct {
	alloc uint64
	gcs   uint32
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{alloc: m.TotalAlloc, gcs: m.NumGC}
}

// cpuTicks is the host CPU time the kernel accounted so far: all of it, and
// the part stolen by the hypervisor.
type cpuTicks struct{ total, steal uint64 }

func readCPU() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var c cpuTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			c.total += v
		}
		if i == 7 {
			c.steal = v
		}
	}
	return c
}

// stealPct is the share of CPU time stolen between two readings, in percent.
func stealPct(a, b cpuTicks) float64 {
	return 100 * ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}
