package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const benchmarkPath = "../../BENCHMARK.json"

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {22, 50}, {99, 50}, {100, 90}, {300, 90}, {999, 90}, {1000, 99}, {12000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Each workload's fixed tail must be allowed at the op count a
	// 15-second run reaches on a 2-CPU host.
	for _, c := range []struct {
		name string
		ops  int
	}{{"table1", 200}, {"study", 200}, {"triage", 10000}, {"family", 20}} {
		def, _ := lookup(c.name)
		if rule := tailPercentile(c.ops); def.tail > rule {
			t.Errorf("%s reports p%v, but %d ops allow only p%v", c.name, def.tail, c.ops, rule)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2.5, 9}, [3]float64{0.875, 5.75, 10.625}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestCalibrationKernel holds the kernel to what calib.go relies on: it
// allocates nothing, so the program's garbage collector does not change
// its speed, and the same offset gives the same work.
func TestCalibrationKernel(t *testing.T) {
	c := newCalibrator()
	if a, b := c.kernel(5), newCalibrator().kernel(5); a != b {
		t.Errorf("kernel(5) = %d, then %d", a, b)
	}
	off := 0
	if allocs := testing.AllocsPerRun(20, func() { c.kernel(off); off++ }); allocs != 0 {
		t.Errorf("kernel allocates %v times per run", allocs)
	}
	c.keepUp(0)
	if len(c.samples) != calBurst || c.scale() <= 0 {
		t.Errorf("after one burst: %d samples, scale %v", len(c.samples), c.scale())
	}
}

var (
	namePat = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitPat = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathPat = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func TestNames(t *testing.T) {
	b, err := loadBenchmark(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !namePat.MatchString(name) {
			t.Errorf("name %q does not match %s", name, namePat)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range b.Workloads {
		check(w.Name)
	}
	for _, m := range append(append([]metricDecl(nil), b.EndToEnd...), b.PerLayer...) {
		check(m.Name)
		if !unitPat.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unitPat)
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !namePat.MatchString(m.name) {
			t.Errorf("metric %q does not match %s", m.name, namePat)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to its schema and to the code:
// the same workloads and the same metrics with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := loadBenchmark(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if len(b.Paths) < 1 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathPat.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sameMetrics(t, "end_to_end", b.EndToEnd, endToEnd)
	sameMetrics(t, "per_layer", b.PerLayer, perLayer)
	largest := 0.0
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
		} else {
			largest = max(largest, *m.Bound)
		}
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || *m.Bound != largest) {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound")
		}
	}
	for _, m := range b.PerLayer {
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	if fi, err := os.Stat(benchmarkPath); err != nil || fi.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json larger than 64 KiB")
	}
}

func sameMetrics(t *testing.T, key string, decl []metricDecl, code []metric) {
	t.Helper()
	if len(decl) != len(code) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the code %d", key, len(decl), len(code))
	}
	for i := range min(len(decl), len(code)) {
		d, c := decl[i], code[i]
		if d.Name != c.name || d.Unit != c.unit {
			t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", key, i, d.Name, d.Unit, c.name, c.unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, on tiny
// inputs: every declared metric must come out and every check must pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", def.name, traced), func(t *testing.T) {
				dir := t.TempDir()
				r := &runner{def: def, opts: options{seed: 3, dir: dir, small: true}, seconds: time.Millisecond, warmup: 1}
				res, det, err := r.measure(time.Now(), traced, filepath.Join(dir, "spans.json"))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m.name]
					if !ok || v.Unit != m.unit {
						t.Errorf("metric %s = %+v, want unit %s", m.name, v, m.unit)
					}
				}
				if det.Ops < 1 || len(det.SetupSeconds) != setups {
					t.Errorf("detail %+v", det)
				}
			})
		}
	}
}

func TestSpread(t *testing.T) {
	dir := t.TempDir()
	write := func(set, name string, p50 float64) string {
		path := filepath.Join(dir, set, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"workload":"family","trace":false}
{"correct":true,"attempted":5,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"},"op_cpu_ms_p50":{"value":%g,"unit":"ms"},"op_cpu_ms_tail":{"value":%g,"unit":"ms"},"apps_per_cpu_s":{"value":100,"unit":"1/s"},"rss_mib":{"value":10,"unit":"MiB"}}}
`, p50, p50)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []string{
		write("a", "1", 100), write("a", "2", 101), write("a", "3", 99), write("a", "4", 100),
		write("b", "1", 100), write("b", "2", 102), write("b", "3", 101), write("b", "4", 100),
	}
	var out bytes.Buffer
	if code := spreadMain(append([]string{"-bench", benchmarkPath}, steady...), &out); code != 0 {
		t.Errorf("steady runs: exit %d\n%s", code, out.String())
	}
	slower := []string{write("c", "1", 150), write("c", "2", 151), write("c", "3", 149), write("c", "4", 150)}
	out.Reset()
	if code := spreadMain(append([]string{"-bench", benchmarkPath}, append(steady, slower...)...), &out); code != 1 {
		t.Errorf("a 50%% slower set: exit %d, want 1\n%s", code, out.String())
	}
}
