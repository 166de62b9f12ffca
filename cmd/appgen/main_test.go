package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
)

// TestMain points the default "auto" store at a throwaway directory so tests
// never touch the user's real artifact cache (and still exercise the
// persistent path).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "appgen-test-cache")
	if err != nil {
		panic(err)
	}
	os.Setenv("FRAGDROID_CACHE", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestRunPaperCorpus(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-q"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 { // demo + 15 paper apps
		t.Fatalf("wrote %d files, want 16", len(entries))
	}
	// Every emitted archive loads through the real pipeline.
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := apk.LoadBytes(data); err != nil {
			t.Errorf("%s does not load: %v", e.Name(), err)
		}
	}
}

func TestRunDemoCorpus(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-corpus", "demo", "-q"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "com.demo.app.sapk")); err != nil {
		t.Fatal(err)
	}
}

func TestRunStudyCorpus(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-corpus", "study", "-q"}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 217 {
		t.Fatalf("wrote %d study archives, want 217", len(entries))
	}
}

// TestRunFamilyCorpus drives -corpus family end to end: N archives land on
// disk, every one loads through the real pipeline, and the manifest JSON
// names each member with its axes, consistent with the generator.
func TestRunFamilyCorpus(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-corpus", "family", "-n", "30", "-seed", "7", "-q"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "family_manifest.json"))
	if err != nil {
		t.Fatalf("family manifest not written: %v", err)
	}
	var manifest struct {
		Corpus string `json:"corpus"`
		N      int    `json:"n"`
		Seed   int64  `json:"seed"`
		Apps   []struct {
			Package string   `json:"package"`
			File    string   `json:"file"`
			Axes    []string `json:"axes"`
		} `json:"apps"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if manifest.Corpus != "family" || manifest.N != 30 || manifest.Seed != 7 || len(manifest.Apps) != 30 {
		t.Fatalf("manifest header off: %+v", manifest)
	}
	fam := corpus.NewFamily(30, 7)
	axisSeen := false
	for i, a := range manifest.Apps {
		if want := fam.At(i).Package; a.Package != want {
			t.Fatalf("manifest app %d is %s, want %s", i, a.Package, want)
		}
		if !reflect.DeepEqual(a.Axes, fam.Axes(i)) {
			t.Fatalf("manifest axes of %s = %v, want %v", a.Package, a.Axes, fam.Axes(i))
		}
		if len(a.Axes) > 0 {
			axisSeen = true
		}
		archive, err := os.ReadFile(filepath.Join(dir, a.File))
		if err != nil {
			t.Fatalf("archive %s missing: %v", a.File, err)
		}
		if _, err := apk.LoadBytes(archive); err != nil {
			t.Errorf("%s does not load: %v", a.File, err)
		}
	}
	if !axisSeen {
		t.Error("no manifest entry carries an axis; generator axes not recorded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 31 { // 30 archives + the manifest
		t.Fatalf("wrote %d files, want 31", len(entries))
	}

	if err := run([]string{"-out", t.TempDir(), "-corpus", "family", "-n", "0"}); err == nil {
		t.Error("-corpus family -n 0: want error")
	}
}

func TestRunUnknownCorpus(t *testing.T) {
	if err := run([]string{"-corpus", "bogus", "-out", t.TempDir()}); err == nil {
		t.Fatal("unknown corpus: want error")
	}
}

// TestRunHelp pins -h and -help as a successful run: the flag package
// prints the usage to stderr and run returns no error, so the exit code is 0.
func TestRunHelp(t *testing.T) {
	for _, args := range [][]string{{"-h"}, {"-help"}} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestRunRejectsUnreadFlags pins the flag boundary: -n or -seed with a
// corpus that never reads it, -cache without -trace and -n below 1 are
// errors, and neither the output directory nor the store appears.
func TestRunRejectsUnreadFlags(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	for _, args := range [][]string{
		{"-corpus", "study", "-n", "5"},
		{"-corpus", "paper", "-n", "50", "-seed", "9"},
		{"-corpus", "paper", "-seed", "9"},
		{"-corpus", "demo", "-cache", store},
		{"-corpus", "family", "-n", "0"},
	} {
		out := filepath.Join(t.TempDir(), "apps")
		if err := run(append(args, "-out", out, "-q")); err == nil {
			t.Errorf("run(%v): want error", args)
		}
		for _, dir := range []string{out, store} {
			if _, err := os.Stat(dir); err == nil {
				t.Fatalf("run(%v) created %s", args, dir)
			}
		}
	}
}
