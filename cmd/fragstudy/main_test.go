package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fragdroid/internal/device"
)

// TestMain points the default "auto" store at a throwaway directory so tests
// never touch the user's real artifact cache (and still exercise the
// persistent path).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fragstudy-test-cache")
	if err != nil {
		panic(err)
	}
	os.Setenv("FRAGDROID_CACHE", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestRunStudy(t *testing.T) {
	if err := run(nil); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestRunTables(t *testing.T) {
	if err := run([]string{"-table1", "-table2", "-gap"}); err != nil {
		t.Fatalf("run tables: %v", err)
	}
}

func TestRunBaselines(t *testing.T) {
	if err := run([]string{"-baselines"}); err != nil {
		t.Fatalf("run -baselines: %v", err)
	}
}

func TestRunCompare(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bakeoff.json")
	err := run([]string{"-compare", "explorer,monkey", "-budget", "80",
		"-seeds", "3", "-comparejson", path})
	if err != nil {
		t.Fatalf("run -compare: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("bake-off JSON not written: %v", err)
	}
	if !strings.Contains(string(data), `"mean_activity_pct"`) {
		t.Fatal("bake-off JSON missing the coverage curve")
	}
	if err := run([]string{"-compare", "bogus"}); err == nil {
		t.Fatal("-compare bogus: want error")
	}
}

func TestRunStrategySelection(t *testing.T) {
	if err := run([]string{"-table2", "-strategy", "monkey"}); err != nil {
		t.Fatalf("run -table2 -strategy monkey: %v", err)
	}
	if err := run([]string{"-table1", "-strategy", "monkey"}); err == nil {
		t.Fatal("-table1 -strategy monkey: want explorer-only error")
	}
}

// TestRunStreamedStudy drives the streaming surface end to end: a streamed
// family study writes a bench-json throughput record whose shape and numbers
// scripts/bench_diff.py can consume, and a streamed run of the default
// 217-app corpus also succeeds.
func TestRunStreamedStudy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.json")
	err := run([]string{"-corpus", "family", "-n", "40", "-stream",
		"-window", "5", "-cache", "off", "-streamjson", path})
	if err != nil {
		t.Fatalf("run streamed family study: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("stream bench record not written: %v", err)
	}
	var record struct {
		Benchmarks []struct {
			Name       string `json:"name"`
			Iterations int    `json:"iterations"`
			NsPerOp    int64  `json:"ns_per_op"`
			Window     int    `json:"window"`
			MaxLive    int    `json:"max_live"`
		} `json:"benchmarks"`
		HostCPUs   int     `json:"host_cpus"`
		AppsPerSec float64 `json:"apps_per_sec"`
		PeakHeap   uint64  `json:"peak_heap_bytes"`
	}
	if err := json.Unmarshal(data, &record); err != nil {
		t.Fatalf("stream bench record is not valid JSON: %v", err)
	}
	if len(record.Benchmarks) != 1 || record.Benchmarks[0].Name != "FamilyStudyStream" {
		t.Fatalf("bench record shape off: %s", data)
	}
	b := record.Benchmarks[0]
	if b.Iterations != 40 || b.NsPerOp <= 0 || b.Window != 5 || b.MaxLive < 1 || b.MaxLive > 5 {
		t.Errorf("bench row off: %+v", b)
	}
	if record.HostCPUs < 1 || record.AppsPerSec <= 0 || record.PeakHeap == 0 {
		t.Errorf("derived numbers off: cpus=%d apps/sec=%v peak=%d",
			record.HostCPUs, record.AppsPerSec, record.PeakHeap)
	}

	if err := run([]string{"-stream"}); err != nil {
		t.Fatalf("run -stream over the 217-app study: %v", err)
	}
}

// TestRunStreamedLint runs fraglint over a family corpus through the
// streaming fold.
func TestRunStreamedLint(t *testing.T) {
	err := run([]string{"-lint", "-corpus", "family", "-n", "25", "-stream", "-cache", "off"})
	if err != nil {
		t.Fatalf("run streamed family lint: %v", err)
	}
}

// TestRunCorpusFlagValidation pins the flag boundary of the corpus-scale
// surface: unknown corpora, non-positive family sizes and -streamjson
// without -stream are all rejected.
func TestRunCorpusFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-corpus", "bogus"},
		{"-corpus", "family", "-n", "0"},
		{"-streamjson", filepath.Join(t.TempDir(), "s.json")},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag: want error")
	}
}

func TestRunRejectsBadParallel(t *testing.T) {
	for _, v := range []string{"0", "-3"} {
		err := run([]string{"-parallel", v})
		if err == nil {
			t.Fatalf("-parallel %s: want error, got nil", v)
		}
		if !strings.Contains(err.Error(), "-parallel must be at least 1") {
			t.Fatalf("-parallel %s: unhelpful error %q", v, err)
		}
	}
}

func TestRunTableWithMetricsAndTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-table1", "-metrics", "-trace", path}); err != nil {
		t.Fatalf("run -table1 -metrics -trace: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	if !strings.HasPrefix(string(data), "[") || !strings.Contains(string(data), `"script_run"`) {
		t.Fatal("trace file does not look like a JSON event array")
	}
}

// TestRunProfileFlags drives a study run with -cpuprofile and -memprofile and
// checks that both profiles land on disk as non-empty files — the recipe
// DESIGN.md documents for finding warm-path regressions.
func TestRunProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	if err := run([]string{"-table1", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatalf("run -table1 with profiles: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "no", "such", "dir", "x.prof")}); err == nil {
		t.Error("unwritable -cpuprofile path: want error")
	}
}

// TestRunInterpFlag pins the -interp contract: both backends run the study,
// and an unknown backend is rejected at the flag boundary. The default is
// restored afterwards so test order does not leak interpreter state.
func TestRunInterpFlag(t *testing.T) {
	defer device.SetDefaultInterp("ir")
	for _, mode := range []string{"ir", "classic"} {
		if err := run([]string{"-interp", mode}); err != nil {
			t.Fatalf("run -interp %s: %v", mode, err)
		}
		if got := device.DefaultInterp(); got != mode {
			t.Fatalf("DefaultInterp after -interp %s = %s", mode, got)
		}
	}
	if err := run([]string{"-interp", "jit"}); err == nil {
		t.Error("-interp jit: want error")
	}
}
