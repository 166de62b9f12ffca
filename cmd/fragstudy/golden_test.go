package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fragdroid/internal/session"
)

var update = flag.Bool("update", false, "rewrite the report goldens and trace digests in testdata from this build")

// reportGoldens are the fragstudy reports checked in under testdata, one
// golden per mode. Every mode runs with -cache off, so no store state leaks
// in. The reports are deterministic and -parallel-invariant, so any byte
// that moves is a changed table.
var reportGoldens = []struct {
	name string
	args []string
}{
	{"tables", []string{"-table1", "-table2", "-metrics"}},
	{"gap", []string{"-gap"}},
	{"ceiling", []string{"-ceiling"}},
	{"baselines", []string{"-baselines"}},
	{"compare_all", []string{"-compare", "all"}},
	{"directed", []string{"-directed"}},
	{"lint", []string{"-lint"}},
	{"study_seed1", []string{"-seed", "1"}},
	{"study_seed7", []string{"-seed", "7"}},
	{"monkey_table2_metrics", []string{"-strategy", "monkey", "-table2", "-metrics"}},
	{"family_stream", []string{"-corpus", "family", "-n", "300", "-stream"}},
	{"lint_family_stream", []string{"-lint", "-corpus", "family", "-n", "300"}},
}

// TestReportGoldens runs each report in-process and compares its stdout with
// testdata/<name>.golden byte for byte. Regenerate the files only with
// `go test ./cmd/fragstudy -run TestReportGoldens -update`, and say in the
// change why each one moved.
func TestReportGoldens(t *testing.T) {
	for _, g := range reportGoldens {
		t.Run(g.name, func(t *testing.T) {
			got := runStdout(t, append(g.args, "-cache", "off"))
			path := filepath.Join("testdata", g.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("fragstudy %s differs from %s:\n%s",
					strings.Join(g.args, " "), path, firstDiff(got, string(want)))
			}
		})
	}
}

// TestTraceDigests runs fragstudy -table1 -trace at -parallel 2 and compares
// the SHA-256 of each app's events, sorted by seq, with that app's line of
// testdata/trace.sha256. Parallel apps interleave in the file, so its raw
// bytes depend on -parallel; each app's events do not. Regenerate the file
// only with `go test ./cmd/fragstudy -run TestTraceDigests -update`, and say
// in the change why each digest moved.
func TestTraceDigests(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	runStdout(t, []string{"-table1", "-trace", path, "-parallel", "2", "-cache", "off"})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []session.Event
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(events, func(a, b session.Event) int {
		return cmp.Or(strings.Compare(a.App, b.App), cmp.Compare(a.Seq, b.Seq))
	})
	var got strings.Builder
	for len(events) > 0 {
		n := 1
		for n < len(events) && events[n].App == events[0].App {
			n++
		}
		data, err := json.Marshal(events[:n])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%x  %s\n", sha256.Sum256(data), events[0].App)
		events = events[n:]
	}
	const golden = "testdata/trace.sha256"
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("fragstudy -table1 -trace digests differ from %s:\n%s", golden, firstDiff(got.String(), string(want)))
	}
}

// runStdout runs fragstudy in-process and returns what it printed, minus the
// "streamed:" line, which carries wall time and sampled heap.
func runStdout(t *testing.T, args []string) string {
	t.Helper()
	lines := strings.SplitAfter(captureStdout(t, args), "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "streamed: ") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "")
}

// captureStdout runs fragstudy in-process and returns what it printed.
func captureStdout(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no line differs)"
}
