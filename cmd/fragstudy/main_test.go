package main

import (
	"fmt"
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
// family study prints its throughput line, with the window derived from
// -parallel (max(2·parallel, 4)), and a streamed run of the default 217-app
// corpus also succeeds.
func TestRunStreamedStudy(t *testing.T) {
	out := captureStdout(t, []string{"-corpus", "family", "-n", "40", "-stream",
		"-parallel", "3", "-cache", "off"})
	i := strings.Index(out, "streamed: ")
	if i < 0 {
		t.Fatalf("no streamed: line in\n%s", out)
	}
	var apps, window, maxLive int
	var secs, rate, heap float64
	_, err := fmt.Sscanf(out[i:], "streamed: %d apps in %fs (%f apps/sec), window %d (max in-flight %d), peak heap %f MiB",
		&apps, &secs, &rate, &window, &maxLive, &heap)
	if err != nil {
		t.Fatalf("streamed: line does not parse: %v\n%s", err, out[i:])
	}
	if apps != 40 || window != 6 || maxLive < 1 || maxLive > 6 || rate <= 0 || heap <= 0 {
		t.Errorf("streamed: line off: %s", out[i:])
	}

	if err := run([]string{"-stream"}); err != nil {
		t.Fatalf("run -stream over the 217-app study: %v", err)
	}
}

// TestRunStreamedLint runs fraglint over a family corpus; like every corpus
// run it releases each app once it has folded.
func TestRunStreamedLint(t *testing.T) {
	err := run([]string{"-lint", "-corpus", "family", "-n", "25", "-cache", "off"})
	if err != nil {
		t.Fatalf("run streamed family lint: %v", err)
	}
}

// TestRunCorpusFlagValidation pins the flag boundary: unknown corpora,
// family sizes, budgets and seed counts below 1, every flag given to a run
// that never reads it, and two flags that pick different runs are all
// rejected, and no file appears.
func TestRunCorpusFlagValidation(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.json")
	for _, args := range [][]string{
		{"-corpus", "bogus"},
		{"-corpus", "family", "-n", "0"},
		{"-compare", "explorer", "-trace", out},
		{"-lint", "-trace", out},
		{"-trace", out},
		{"-comparejson", out},
		{"-table1", "-directedjson", out},
		{"-compare", "monkey", "-seeds", "-1"},
		{"-compare", "monkey", "-seeds", "0"},
		{"-compare", "monkey", "-budget", "-5"},
		{"-compare", "monkey", "-budget", "0"},
		{"-table1", "-budget", "50"},
		{"-baselines", "-seeds", "5"},
		{"-metrics"},
		{"-directed", "-metrics"},
		{"-n", "50"},
		{"-lint", "-strategy", "monkey"},
		{"-compare", "explorer", "-stream"},
		{"-lint", "-stream"},
		{"-table1", "-directed"},
		{"-lint", "-table1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("run(%v) wrote %s", args, out)
		}
	}
}

// TestRunSharedFlags pins the flags that go with every run: -seed,
// -parallel, -cache, -interp, and -strategy explorer, the default spelled
// out.
func TestRunSharedFlags(t *testing.T) {
	shared := []string{"-seed", "3", "-parallel", "2", "-cache", "off", "-interp", "ir", "-strategy", "explorer"}
	for _, args := range [][]string{
		{"-corpus", "family", "-n", "5"},
		{"-lint", "-corpus", "family", "-n", "5"},
		{"-table2"},
		{"-directed"},
		{"-baselines"},
		{"-compare", "monkey", "-budget", "20", "-seeds", "1"},
	} {
		if err := run(append(args, shared...)); err != nil {
			t.Errorf("run(%v): %v", args, err)
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
