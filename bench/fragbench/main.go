// Command fragbench is the repository benchmark. It runs one workload as a
// single closed-loop client, so each op starts when the previous one ended,
// checks every output, and prints every metric by name with its unit as
// JSON. The last line of its output is the result:
//
//	{"correct": true, "attempted": 312, "failed": 0, "metrics": {"op_cpu_ms_p50": {"value": 71.4, "unit": "ms"}, ...}}
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload table1 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload triage --seed 2 --seconds 15 --trace 1
//	bash bench/run.sh spread bench/results/<commit>/set1/*.json ...
//
// --trace 0 reports the end-to-end metrics, with times in process CPU time
// scaled to the reference host's speed by a calibration kernel run between
// ops (see calib.go); --trace 1 runs traced ops and reports the per-layer
// metrics, writing every span to --spans. The spread subcommand summarizes
// result files against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// options configure one workload instance.
type options struct {
	seed  int64
	dir   string // the run's directory for stores
	small bool   // tiny inputs, for the harness smoke test
}

type workloadDef struct {
	name   string
	warmup int
	tail   float64
	open   func(options) (workload, error)
}

// workload is one workload instance as the harness drives it. Op indexes
// start at 0 with the warm-up ops and keep counting through the run.
type workload interface {
	// prepare makes op i's inputs. It is not timed.
	prepare(i int) error
	// run performs op i and returns the apps it analyzed; it is the only
	// timed call. serial runs every app after the other instead of with
	// the CLI's parallelism: the base of trace.overhead_ratio.
	run(i int, serial bool) (apps int, err error)
	// traced performs op i as sequential calls into the program, each in a
	// span; it brackets the op with tr.beginOp and tr.endOp.
	traced(i int, tr *tracer) error
	// finish checks the output of the op just run and, with release, drops
	// what the op left pinned in process-wide state, as the exit of a CLI
	// process would. It is not timed.
	finish(i int, release bool) error
	// verify makes the end-of-run checks and returns how many ops they
	// found wrong.
	verify() (wrong int, err error)
}

type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run. The times are process CPU
// times scaled to the reference host's speed (see calib.go).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"op_cpu_ms_p50", "ms"},
	{"op_cpu_ms_tail", "ms"},
	{"apps_per_cpu_s", "1/s"},
	{"rss_mib", "MiB"},
}

// perLayer are the metrics of a traced run. Times are the median per-app
// self time of a layer; counts are per app as well.
var perLayer = []metric{
	{"corpus.spec_us", "us"},
	{"corpus.build_us", "us"},
	{"apk.encode_us", "us"},
	{"apk.decode_us", "us"},
	{"apk.parse_archive_us", "us"},
	{"apk.load_us", "us"},
	{"smali.parse_us", "us"},
	{"jdcore.decompile_us", "us"},
	{"callgraph.build_us", "us"},
	{"callgraph.reach_us", "us"},
	{"ir.compile_us", "us"},
	{"statics.extract_us", "us"},
	{"statics.encode_us", "us"},
	{"statics.decode_us", "us"},
	{"aftm.edges", "count"},
	{"artifact.app_us", "us"},
	{"artifact.extraction_us", "us"},
	{"artifact.files_written", "count"},
	{"artifact.bytes_written", "B"},
	{"artifact.disk_hits", "count"},
	{"artifact.disk_misses", "count"},
	{"artifact.ir_hits", "count"},
	{"artifact.ir_misses", "count"},
	{"report.scan_us", "us"},
	{"explorer.explore_us", "us"},
	{"session.test_cases", "count"},
	{"session.steps", "count"},
	{"session.executed_steps", "count"},
	{"session.snapshot_hits", "count"},
	{"session.snapshot_restores", "count"},
	{"session.memo_hit_ratio", "ratio"},
	{"session.pack_writes", "count"},
	{"session.flush_us", "us"},
	{"device.replay_us", "us"},
	{"device.steps_per_ms", "steps/ms"},
	{"device.snapshot_us", "us"},
	{"device.restore_us", "us"},
	{"report.fold_us", "us"},
	{"report.max_live", "count"},
	{"runtime.alloc_mib_per_op", "MiB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.live_heap_mib_end", "MiB"},
	{"runtime.retained_kib_per_op", "KiB"},
	{"trace.covered_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 5

func main() {
	start := time.Now()
	if len(os.Args) > 1 && os.Args[1] == "spread" {
		os.Exit(spreadMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(start, os.Args[1:], os.Stdout))
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is printed ahead of the result: what ran, where, and how often.
type detail struct {
	Workload       string    `json:"workload"`
	Seed           int64     `json:"seed"`
	Trace          bool      `json:"trace"`
	Seconds        int       `json:"seconds"`
	HostCPUs       int       `json:"host_cpus"`
	GOMAXPROCS     int       `json:"gomaxprocs"`
	GoVersion      string    `json:"go_version"`
	Commit         string    `json:"commit"`
	WarmupOps      int       `json:"warmup_ops"`
	Ops            int       `json:"ops"`
	TimedSeconds   float64   `json:"timed_s"`
	SetupSeconds   []float64 `json:"setup_samples_s"`     // wall time
	SetupCPU       []float64 `json:"setup_cpu_samples_s"` // process CPU time
	TailPercentile float64   `json:"tail_percentile"`
	// TailRule is the percentile the ten-beyond rule allows at this run's
	// op count; a value below TailPercentile means the tail is thin.
	TailRule float64 `json:"tail_rule_percentile"`
	// CalibrationMs is the calibration kernel's median CPU time in this run
	// over CalibrationRuns runs of it. Scale, refKernelMs over it, is the
	// factor the reported CPU times were multiplied by (apps_per_cpu_s
	// divided by). Raw holds them as measured, beside the same statistics
	// of wall time, which the host's steal makes too unsteady to bound.
	CalibrationMs   float64            `json:"calibration_ms,omitempty"`
	CalibrationRuns int                `json:"calibration_runs,omitempty"`
	Scale           float64            `json:"scale,omitempty"`
	Raw             map[string]float64 `json:"raw,omitempty"`
}

func benchMain(start time.Time, args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("fragbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: table1, study, triage or family")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Int("seconds", 15, "how long the run measures")
		trace   = fs.Int("trace", 0, "1 runs traced ops and reports the per-layer metrics")
		spans   = fs.String("spans", "", "with -trace 1: span file (default .bench_build/spans/WORKLOAD-seedN.json)")
		workdir = fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the run's stores, removed at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "fragbench: need -workload table1|study|triage|family, -seconds >= 1 and -trace 0|1")
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", def.name, *seed))
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", def.name, os.Getpid()))
	// Stores are only deleted here, after the measurement: deleting them
	// during the run made later ops wait on the file system, and the sync
	// keeps that work from spilling into the next run.
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()
	r := &runner{def: def, opts: options{seed: *seed, dir: dir}, seconds: time.Duration(*seconds) * time.Second}
	res, det, err := r.measure(start, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fragbench:", err)
		return 1
	}
	det.Seed, det.Seconds = *seed, *seconds
	for _, v := range []any{det, res} {
		if err := printJSON(stdout, v); err != nil {
			fmt.Fprintln(os.Stderr, "fragbench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func lookup(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func printJSON(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// runner measures one run of one workload.
type runner struct {
	def     workloadDef
	opts    options
	seconds time.Duration
	warmup  int // overrides def.warmup when positive

	attempted, failed int
}

func (r *runner) warmupOps() int {
	if r.warmup > 0 {
		return r.warmup
	}
	return r.def.warmup
}

// setUp opens the workload and runs its warm-up ops, setups times over,
// each in a fresh instance; the last instance is kept. It returns each
// set-up's wall and process CPU time in seconds. The first set-up's times
// start at process start. The instances share the run's directory, so
// only the first set-up fills a workload's store.
func (r *runner) setUp(start time.Time) (w workload, wall, cpu []float64, err error) {
	var cpuStart time.Duration
	for k := 0; k < setups; k++ {
		if k > 0 {
			start, cpuStart = time.Now(), processCPU()
		}
		if w, err = open(r.def, r.opts); err != nil {
			return nil, nil, nil, err
		}
		for i := 0; i < r.warmupOps(); i++ {
			if err := w.prepare(i); err != nil {
				return nil, nil, nil, fmt.Errorf("warm-up op %d: %w", i, err)
			}
			if _, err := w.run(i, false); err != nil {
				return nil, nil, nil, fmt.Errorf("warm-up op %d: %w", i, err)
			}
			if err := w.finish(i, true); err != nil {
				return nil, nil, nil, fmt.Errorf("warm-up op %d: %w", i, err)
			}
		}
		wall = append(wall, time.Since(start).Seconds())
		cpu = append(cpu, (processCPU() - cpuStart).Seconds())
	}
	return w, wall, cpu, nil
}

// fail counts a failed op and reports why.
func (r *runner) fail(i int, err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "fragbench: %s op %d: %v\n", r.def.name, i, err)
}

func (r *runner) measure(start time.Time, traced bool, spansPath string) (*result, *detail, error) {
	w, setupWall, setupCPU, err := r.setUp(start)
	if err != nil {
		return nil, nil, err
	}
	det := &detail{
		Workload: r.def.name, Trace: traced,
		HostCPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		WarmupOps: r.warmupOps(), SetupSeconds: setupWall, SetupCPU: setupCPU,
		TailPercentile: r.def.tail,
	}
	metrics := make(map[string]value)
	timedStart := time.Now()
	var ops int
	if traced {
		ops, err = r.measureTraced(w, metrics, spansPath)
	} else {
		ops, err = r.measureOps(w, metrics, det)
	}
	if err != nil {
		return nil, nil, err
	}
	det.Ops = ops
	det.TimedSeconds = time.Since(timedStart).Seconds()
	det.TailRule = tailPercentile(ops)

	wrong, err := w.verify()
	if err != nil {
		return nil, nil, fmt.Errorf("verify: %w", err)
	}
	if wrong > 0 {
		fmt.Fprintf(os.Stderr, "fragbench: %s: end-of-run checks found %d wrong ops\n", r.def.name, wrong)
		r.failed = min(r.attempted, r.failed+wrong)
	}
	if traced {
		r.runtimeMetrics(w, metrics)
	} else {
		det.Raw["setup_wall_s"] = median(setupWall)
		det.Raw["setup_cpu_s"] = median(setupCPU)
		metrics["setup_s"] = value{det.Raw["setup_cpu_s"] * det.Scale, "s"}
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := metrics[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "fragbench: %s: metric %s was not measured\n", r.def.name, m.name)
			res.Correct = false
		}
	}
	return res, det, nil
}

// rssEvery is how often measureOps samples the resident set between ops.
const rssEvery = 10 * time.Millisecond

// measureOps runs untimed-prepare, timed-run, untimed-finish ops until the
// run's time is up, with calibration bursts and resident-set samples
// between them, and derives the end-to-end metrics. It sets det's
// calibration fields, which measure then applies to setup_s too.
func (r *runner) measureOps(w workload, metrics map[string]value, det *detail) (int, error) {
	var wallMs, cpuMs, rss []float64
	var apps float64
	var busyWall, busyCPU time.Duration
	cal := newCalibrator()
	var lastRSS time.Time
	deadline := time.Now().Add(r.seconds)
	first := r.warmupOps()
	for i := first; i == first || time.Now().Before(deadline); i++ {
		if err := w.prepare(i); err != nil {
			return 0, err
		}
		r.attempted++
		t, c := time.Now(), processCPU()
		n, err := w.run(i, false)
		dc, d := processCPU()-c, time.Since(t)
		if ferr := w.finish(i, true); err == nil {
			err = ferr
		}
		if err != nil {
			r.fail(i, err)
			continue
		}
		wallMs = append(wallMs, millis(d))
		cpuMs = append(cpuMs, millis(dc))
		apps += float64(n)
		busyWall += d
		busyCPU += dc
		cal.keepUp(busyWall)
		if time.Since(lastRSS) >= rssEvery {
			if mib, err := rssMiB(); err == nil {
				rss = append(rss, mib)
			}
			lastRSS = time.Now()
		}
	}
	scale := cal.scale()
	det.CalibrationMs, det.CalibrationRuns, det.Scale = cal.medianMs(), len(cal.samples), scale
	det.Raw = map[string]float64{
		"op_cpu_ms_p50":   median(cpuMs),
		"op_cpu_ms_tail":  percentile(cpuMs, r.def.tail),
		"op_wall_ms_p50":  median(wallMs),
		"op_wall_ms_tail": percentile(wallMs, r.def.tail),
	}
	metrics["op_cpu_ms_p50"] = value{det.Raw["op_cpu_ms_p50"] * scale, "ms"}
	metrics["op_cpu_ms_tail"] = value{det.Raw["op_cpu_ms_tail"] * scale, "ms"}
	if busyCPU > 0 && busyWall > 0 {
		det.Raw["apps_per_cpu_s"] = apps / busyCPU.Seconds()
		det.Raw["apps_per_wall_s"] = apps / busyWall.Seconds()
		metrics["apps_per_cpu_s"] = value{det.Raw["apps_per_cpu_s"] / scale, "1/s"}
	}
	if len(rss) > 0 {
		metrics["rss_mib"] = value{median(rss), "MiB"}
	}
	return len(wallMs), nil
}

// measureTraced runs, per op index until the run's time is up, an untraced
// op with the CLI's parallelism (for the runtime counters), an untraced
// serial op (the overhead base) and a traced op.
func (r *runner) measureTraced(w workload, metrics map[string]value, spansPath string) (int, error) {
	tr := newTracer()
	var serial, alloc, gcs []float64
	deadline := time.Now().Add(r.seconds)
	var ms0, ms1 runtime.MemStats
	first := r.warmupOps()
	for i := first; i == first || time.Now().Before(deadline); i++ {
		if err := w.prepare(i); err != nil {
			return 0, err
		}
		r.attempted += 3
		runtime.ReadMemStats(&ms0)
		_, err := w.run(i, false)
		runtime.ReadMemStats(&ms1)
		if ferr := w.finish(i, true); err == nil {
			err = ferr
		}
		if err != nil {
			r.fail(i, err)
		} else {
			alloc = append(alloc, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
			gcs = append(gcs, float64(ms1.NumGC-ms0.NumGC))
		}

		t := time.Now()
		_, err = w.run(i, true)
		d := time.Since(t)
		if ferr := w.finish(i, true); err == nil {
			err = ferr
		}
		if err != nil {
			r.fail(i, err)
		} else {
			serial = append(serial, float64(d))
		}

		err = w.traced(i, tr)
		if ferr := w.finish(i, true); err == nil {
			err = ferr
		}
		if err != nil {
			r.fail(i, err)
		}
	}
	if err := tr.write(spansPath); err != nil {
		return 0, err
	}

	for _, m := range perLayer {
		if v, ok := tr.layer(m.name); ok {
			metrics[m.name] = value{v, m.unit}
		}
	}
	// Per-call and per-step values are ratios of per-app sums.
	ratios := []struct {
		name, unit, num, den string
		scale                float64
	}{
		{"device.snapshot_us", "us", "device.snapshot_us", "device.routes", 1},
		{"device.restore_us", "us", "device.restore_us", "device.routes", 1},
		{"device.steps_per_ms", "steps/ms", "device.replay_steps", "device.replay_us", 1000},
		{"session.memo_hit_ratio", "ratio", "session.snapshot_hits", "session.test_cases", 1},
	}
	for _, q := range ratios {
		if v, ok := tr.ratio(q.num, q.den); ok {
			metrics[q.name] = value{v * q.scale, q.unit}
		}
	}
	covered, wall := tr.coverage()
	if len(covered) > 0 {
		metrics["trace.covered_ratio"] = value{median(covered), "ratio"}
	}
	if len(wall) > 0 && len(serial) > 0 {
		metrics["trace.overhead_ratio"] = value{median(wall) / median(serial), "ratio"}
	}
	if len(alloc) > 0 {
		metrics["runtime.alloc_mib_per_op"] = value{median(alloc), "MiB"}
		metrics["runtime.gc_cycles_per_op"] = value{median(gcs), "count"}
	}
	return len(wall), nil
}

// runtimeMetrics measures the live heap left after the run and the heap
// one op keeps past its end when nothing releases it: over a block of
// warm-up-sized ops whose finish skips the release, the growth of the live
// heap after a forced collection, per op.
func (r *runner) runtimeMetrics(w workload, metrics map[string]value) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	metrics["runtime.live_heap_mib_end"] = value{float64(ms.HeapAlloc) / (1 << 20), "MiB"}
	before := ms.HeapAlloc
	n := r.warmupOps()
	base := 1 << 24
	for j := 0; j < n; j++ {
		i := base + j
		if err := w.prepare(i); err != nil {
			r.attempted++
			r.fail(i, err)
			return
		}
		r.attempted++
		_, err := w.run(i, false)
		if ferr := w.finish(i, false); err == nil {
			err = ferr
		}
		if err != nil {
			r.fail(i, err)
			return
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	grown := float64(ms.HeapAlloc) - float64(before)
	metrics["runtime.retained_kib_per_op"] = value{grown / 1024 / float64(n), "KiB"}
}

// rssMiB is the process's current resident set, from /proc/self/statm.
func rssMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("statm: %q", data)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20), nil
}

// commit is the revision the binary was built from, when the build saw a
// git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// dirUsage counts the regular files under a directory and their bytes.
type dirUsage struct{ files, bytes int64 }

func usage(dir string) (dirUsage, error) {
	var u dirUsage
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			u.files++
			u.bytes += info.Size()
		}
		return nil
	})
	return u, err
}

// addWritten records, for the current traced op, what it added to a store
// directory that held before when the op began.
func addWritten(tr *tracer, dir string, before dirUsage) error {
	after, err := usage(dir)
	if err != nil {
		return err
	}
	tr.add("artifact.files_written", -1, float64(after.files-before.files))
	tr.add("artifact.bytes_written", -1, float64(after.bytes-before.bytes))
	return nil
}
