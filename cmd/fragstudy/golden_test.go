package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the report goldens in testdata from this build")

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
	{"lint_family_stream", []string{"-lint", "-corpus", "family", "-n", "300", "-stream"}},
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

// runStdout runs fragstudy in-process and returns what it printed, minus the
// "streamed:" line, which carries wall time and sampled heap.
func runStdout(t *testing.T, args []string) string {
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
	lines := strings.SplitAfter(string(data), "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "streamed: ") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "")
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
