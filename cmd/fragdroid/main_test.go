package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/session"
)

// TestMain points the default "auto" store at a throwaway directory so tests
// never touch the user's real artifact cache (and still exercise the
// persistent path).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fragdroid-test-cache")
	if err != nil {
		panic(err)
	}
	os.Setenv("FRAGDROID_CACHE", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("run -list: %v", err)
	}
}

func TestRunDemo(t *testing.T) {
	if err := run([]string{"-app", "demo", "-max-cases", "200", "-curve"}); err != nil {
		t.Fatalf("run demo: %v", err)
	}
	if err := run([]string{"-app", "demo", "-md"}); err != nil {
		t.Fatalf("run demo -md: %v", err)
	}
}

func TestRunStrategyFlag(t *testing.T) {
	for _, name := range []string{"biased", "model", "trace"} {
		if err := run([]string{"-app", "demo", "-strategy", name,
			"-max-cases", "150", "-seed", "11", "-curve"}); err != nil {
			t.Fatalf("run -strategy %s: %v", name, err)
		}
	}
	if err := run([]string{"-app", "demo", "-strategy", "bogus"}); err == nil {
		t.Fatal("-strategy bogus: want error")
	}
}

// The default -strategy, spelled out, picks no run of its own, so it goes
// with every run, as -seed does with the deterministic ones.
func TestRunDefaultStrategySpelledOut(t *testing.T) {
	for _, args := range [][]string{
		{"-strategy", "explorer", "-meta"},
		{"-strategy", "explorer", "-java"},
		{"-strategy", "explorer", "-target", "media/Camera.startPreview"},
		{"-strategy", "explorer", "-seed", "11", "-max-cases", "100"},
	} {
		if err := run(append([]string{"-app", "demo", "-cache", "off"}, args...)); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunMeta(t *testing.T) {
	if err := run([]string{"-app", "demo", "-meta"}); err != nil {
		t.Fatalf("run -meta: %v", err)
	}
}

func TestRunPaperAppWithFlags(t *testing.T) {
	if err := run([]string{"-app", "org.rbc.odb", "-no-reflection", "-no-forced-start"}); err != nil {
		t.Fatalf("run paper app: %v", err)
	}
}

func TestRunFromArchiveAndInputs(t *testing.T) {
	dir := t.TempDir()
	arch, err := corpus.BuildArchive(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	apkPath := filepath.Join(dir, "demo.sapk")
	if err := os.WriteFile(apkPath, arch.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	inputs := `[{"ref":"@id/login_input_account","value":"alice"}]`
	inPath := filepath.Join(dir, "inputs.json")
	if err := os.WriteFile(inPath, []byte(inputs), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-app", apkPath, "-inputs", inPath}); err != nil {
		t.Fatalf("run from archive: %v", err)
	}
}

// TestSnapshotPacksDependOnlyOnApp pins what a run persists to the app
// alone: two runs on the same app, each into a fresh -cache directory, must
// leave byte-identical store trees — and no snapshot/ tree, since every
// test case replays from launch and nothing writes snapshot packs. A
// family-member archive is parsed directly and persists nothing; a corpus
// app persists its build and static artifacts.
func TestSnapshotPacksDependOnlyOnApp(t *testing.T) {
	fam := corpus.NewFamily(20, 1)
	var apps []string
	for _, i := range []int{2, 6, 12, 15} {
		arch, err := corpus.BuildArchive(fam.At(i))
		if err != nil {
			t.Fatal(err)
		}
		apkPath := filepath.Join(t.TempDir(), fmt.Sprintf("member%d.sapk", i))
		if err := os.WriteFile(apkPath, arch.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		apps = append(apps, apkPath)
	}
	apps = append(apps, "demo", "com.adobe.reader")
	for _, app := range apps {
		var trees [2]map[string][]byte
		for r := range trees {
			dir := t.TempDir()
			if err := run([]string{"-app", app, "-cache", dir}); err != nil {
				t.Fatalf("%s run %d: %v", filepath.Base(app), r, err)
			}
			if _, err := os.Stat(filepath.Join(dir, "snapshot")); !os.IsNotExist(err) {
				t.Fatalf("%s run %d: the store holds a snapshot/ tree (stat err %v)", filepath.Base(app), r, err)
			}
			trees[r] = readTree(t, dir)
		}
		if archive := strings.HasSuffix(app, ".sapk"); archive != (len(trees[0]) == 0) {
			t.Fatalf("%s: the run persisted %d files", filepath.Base(app), len(trees[0]))
		}
		if !reflect.DeepEqual(trees[0], trees[1]) {
			t.Errorf("%s: store trees differ between two runs", filepath.Base(app))
		}
	}
}

// readTree maps every regular file under root to its contents, keyed by
// the path relative to root.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestTraceFollowsExecutionOrder pins the -trace event stream to the order
// things happened on the device: every successful click op of a script run
// must come after the device line that click logged, and that line must
// come after the run's previous op.
func TestTraceFollowsExecutionOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"-app", "demo", "-cache", "off", "-trace", path}); err != nil {
		t.Fatalf("run -trace: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []session.Event
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	clicks := 0
	last := -1 // index of the current run's previous op, or of the last script_run
	for i, ev := range events {
		switch ev.Kind {
		case session.KindScriptRun:
			last = i
		case session.KindOp:
			ref, ok := strings.CutPrefix(ev.Op, "click ")
			if ok && ev.Err == "" {
				clicks++
				if !loggedBetween(events[last+1:i], ref) {
					t.Errorf("op seq %d (%s in %s): no device line for the click between seq %d and it",
						ev.Seq, ev.Op, ev.Script, events[max(last, 0)].Seq)
				}
			}
			last = i
		}
	}
	if clicks == 0 {
		t.Fatal("the trace holds no successful click op; the test is vacuous")
	}
}

// loggedBetween reports whether events holds the device line a click on ref
// logs: "click <ref> ..." for a button, "checkbox <ref> ..." for a checkbox.
func loggedBetween(events []session.Event, ref string) bool {
	for _, ev := range events {
		if ev.Kind == session.KindDevice &&
			(strings.HasPrefix(ev.Detail, "click "+ref+" ") || strings.HasPrefix(ev.Detail, "checkbox "+ref+" ")) {
			return true
		}
	}
	return false
}

func TestRunEmitJavaAndTests(t *testing.T) {
	if err := run([]string{"-app", "demo", "-java"}); err != nil {
		t.Fatalf("run -java: %v", err)
	}
	dir := t.TempDir()
	if err := run([]string{"-app", "demo", "-emit-tests", dir}); err != nil {
		t.Fatalf("run -emit-tests: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "build.xml")); err != nil {
		t.Fatalf("build.xml missing: %v", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "src"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no java programs emitted: %v", err)
	}
	// One .java plus one .json per program; replay a stored one end-to-end.
	var jsonFile string
	javaCount, jsonCount := 0, 0
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".java":
			javaCount++
		case ".json":
			jsonCount++
			jsonFile = filepath.Join(dir, "src", e.Name())
		}
	}
	if javaCount == 0 || javaCount != jsonCount {
		t.Fatalf("java=%d json=%d", javaCount, jsonCount)
	}
	if err := run([]string{"-app", "demo", "-run-test", jsonFile}); err != nil {
		t.Fatalf("run -run-test: %v", err)
	}
	if err := run([]string{"-app", "demo", "-run-test", "/missing.json"}); err == nil {
		t.Error("missing test file: want error")
	}
}

func TestRunTargetMode(t *testing.T) {
	if err := run([]string{"-app", "demo", "-target", "media/Camera.startPreview"}); err != nil {
		t.Fatalf("run -target: %v", err)
	}
	// Unreachable and unknown APIs still complete (reporting not-triggered).
	if err := run([]string{"-app", "demo", "-target", "phone/Configuration.MCC"}); err != nil {
		t.Fatalf("run -target unreachable: %v", err)
	}
	if err := run([]string{"-app", "demo", "-target", "browser/Downloads"}); err != nil {
		t.Fatalf("run -target unused: %v", err)
	}
}

// TestRunErrors pins the flag boundary: unknown apps, missing files and a
// test case budget below 1 are errors, and so is every flag the selected
// kind of run never reads. No rejected run may leave a file behind.
func TestRunErrors(t *testing.T) {
	const target = "media/Camera.startPreview"
	out := filepath.Join(t.TempDir(), "out")
	for _, args := range [][]string{
		{"-app", "no.such.app"},
		{"-app", "/does/not/exist.sapk"},
		{"-app", "demo", "-inputs", "/missing.json"},
		{"-strategy", "monkey", "-emit-tests", out},
		{"-target", target, "-emit-tests", out},
		{"-java", "-emit-tests", out},
		{"-meta", "-trace", out},
		{"-directed"},
		{"-strategy", "monkey", "-md"},
		{"-target", target, "-md"},
		{"-meta", "-md"},
		{"-target", target, "-curve"},
		{"-target", target, "-v"},
		{"-strategy", "monkey", "-no-reflection"},
		{"-strategy", "monkey", "-no-forced-start"},
		{"-md", "-v"},
		{"-strategy", "monkey", "-target", target},
		{"-app", "demo", "-max-cases", "-1"},
		{"-max-cases", "0"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
		if _, err := os.Stat(out); err == nil {
			t.Fatalf("run(%v) wrote %s", args, out)
		}
	}
}
