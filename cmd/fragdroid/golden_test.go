package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fragdroid/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite the transcript goldens and trace digests in testdata from this build")

// goldenApps are the corpus apps whose `fragdroid -v` transcripts are checked
// in under testdata: each runs once by name (an in-memory build) and once as
// a .sapk archive, and both runs must print the same golden.
var goldenApps = []string{"demo", "com.adobe.reader", "com.inditex.zara"}

// goldenFamily is how many members of the seed-1 family run as archives,
// each against a golden of its own.
const goldenFamily = 20

// TestTranscriptGoldens runs fragdroid -v in-process and compares its stdout
// with testdata/<name>.golden byte for byte. The archive runs go through the
// archive, manifest, layout and smali parsers; the by-name runs do not.
// Regenerate the files only with
// `go test ./cmd/fragdroid -run TestTranscriptGoldens -update`, and say in
// the change why each one moved.
func TestTranscriptGoldens(t *testing.T) {
	written := make(map[string]bool)
	for _, r := range goldenRuns(t) {
		t.Run(r.name, func(t *testing.T) {
			got := runStdout(t, []string{"-app", r.app, "-v", "-cache", "off"})
			path := filepath.Join("testdata", r.golden+".golden")
			if *update && !written[path] {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				written[path] = true
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("fragdroid -app %s -v differs from %s:\n%s", r.name, path, firstDiff(got, string(want)))
			}
		})
	}
}

// TestTraceDigests runs fragdroid -trace on the runs of TestTranscriptGoldens
// and compares the SHA-256 of each trace file with its line of
// testdata/trace.sha256. An archive run must write the same trace as its
// by-name run, so the two share a line. Regenerate the file only with
// `go test ./cmd/fragdroid -run TestTraceDigests -update`, and say in the
// change why each digest moved.
func TestTraceDigests(t *testing.T) {
	dir := t.TempDir()
	sums := make(map[string]string) // golden name -> digest of its first run
	var got strings.Builder
	for i, r := range goldenRuns(t) {
		path := filepath.Join(dir, fmt.Sprintf("trace%d.json", i))
		runStdout(t, []string{"-app", r.app, "-trace", path, "-cache", "off"})
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(data))
		if first, ok := sums[r.golden]; ok {
			if sum != first {
				t.Errorf("fragdroid -app %s -trace differs from the by-name run of %s", r.name, r.golden)
			}
			continue
		}
		sums[r.golden] = sum
		fmt.Fprintf(&got, "%s  %s\n", sum, r.golden)
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
		t.Errorf("fragdroid -trace digests differ from %s:\n%s", golden, firstDiff(got.String(), string(want)))
	}
}

// goldenRun is one fragdroid run of the golden tests: its subtest name, its
// -app argument and the golden it must match.
type goldenRun struct{ name, app, golden string }

// goldenRuns lists the golden runs: goldenApps by name, then the same apps
// and seed-1 family members 0 to goldenFamily-1 as .sapk archives, built
// into a temporary directory.
func goldenRuns(t *testing.T) []goldenRun {
	t.Helper()
	var runs []goldenRun
	dir := t.TempDir()
	archive := func(name string, spec *corpus.AppSpec) string {
		arch, err := corpus.BuildArchive(spec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".sapk")
		if err := os.WriteFile(path, arch.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, app := range goldenApps {
		runs = append(runs, goldenRun{app, app, app})
	}
	for _, app := range goldenApps {
		runs = append(runs, goldenRun{app + ".sapk", archive(app, corpusSpec(app)), app})
	}
	fam := corpus.NewFamily(goldenFamily, 1)
	for i := range goldenFamily {
		name := fmt.Sprintf("family1_%02d", i)
		runs = append(runs, goldenRun{name + ".sapk", archive(name, fam.At(i)), name})
	}
	return runs
}

// runStdout runs fragdroid in-process and returns what it printed.
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
