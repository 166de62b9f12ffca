package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/layout"
	"fragdroid/internal/lint"
	"fragdroid/internal/manifest"
	"fragdroid/internal/smali"
)

// TestMain points the default "auto" store at a throwaway directory so tests
// never touch the user's real artifact cache (and still exercise the
// persistent path).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fraglint-test-cache")
	if err != nil {
		panic(err)
	}
	os.Setenv("FRAGDROID_CACHE", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// defectApp assembles a small package seeded with one defect per analyzer
// family the golden test pins: an uncommitted transaction (FL002), a missing
// click handler (FL004), an undeclared intent target (FL006) and an
// unresolved action (FL011).
func defectApp(t *testing.T) *apk.App {
	t.Helper()
	man, err := manifest.NewBuilder("com.defects").
		Launcher("com.defects.Main").Build()
	if err != nil {
		t.Fatal(err)
	}
	root := layout.Root(layout.TypeLinearLayout).ID("@id/main_root").
		Child(layout.Root(layout.TypeFrameLayout).ID("@id/pane")).
		Child(layout.Root(layout.TypeButton).ID("@id/go").Text("go"))
	l, err := root.BuildLayout("activity_main")
	if err != nil {
		t.Fatal(err)
	}
	classes := []*smali.Class{
		{Name: "com.defects.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			{Name: "onCreate", Access: []string{"public"}, Body: []smali.Instr{
				{Op: smali.OpSetContentView, Args: []string{"@layout/activity_main"}},
				{Op: smali.OpSetClickListener, Args: []string{"@id/go", "onGone"}},
				{Op: smali.OpGetFragmentManager},
				{Op: smali.OpBeginTransaction},
				{Op: smali.OpTxnAdd, Args: []string{"@id/pane", "com.defects.HomeFrag"}},
			}},
			{Name: "onJump", Access: []string{"public"}, Body: []smali.Instr{
				{Op: smali.OpNewIntent, Args: []string{"com.defects.Main", "com.defects.Nowhere"}},
				{Op: smali.OpStartActivity},
				{Op: smali.OpNewIntentAction, Args: []string{"com.defects.MISSING"}},
				{Op: smali.OpStartActivity},
			}},
		}},
		{Name: "com.defects.Nowhere", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			{Name: "onCreate", Access: []string{"public"}, Body: []smali.Instr{
				{Op: smali.OpLog, Args: []string{"nowhere"}},
			}},
		}},
		{Name: "com.defects.HomeFrag", Super: smali.ClassFragment, Access: []string{"public"}, Methods: []*smali.Method{
			{Name: "onCreateView", Access: []string{"public"}, Body: []smali.Instr{
				{Op: smali.OpLog, Args: []string{"home"}},
			}},
		}},
	}
	app, err := apk.Assemble(man, []*layout.Layout{l}, classes)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// writeSapk packs the app into a temp .sapk the CLI can load.
func writeSapk(t *testing.T, app *apk.App) string {
	t.Helper()
	arch, err := app.Pack()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "defects.sapk")
	if err := os.WriteFile(path, arch.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

func TestGoldenTextOutput(t *testing.T) {
	path := writeSapk(t, defectApp(t))
	stdout, stderr, code := runCLI(t, path)
	if stderr != "" {
		t.Fatalf("stderr: %s", stderr)
	}
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (errors present)", code)
	}
	got := strings.ReplaceAll(stdout, path, "defects.sapk")
	want := strings.Join([]string{
		"com.defects: com.defects.Main.onCreate:6: error FL004: set-click-listener names com.defects.Main.onGone which does not exist; a click force-closes with NoSuchMethodException",
		"com.defects: com.defects.Main.onCreate:8: error FL002: begin-transaction is never committed; the fragment never shows",
		"com.defects: com.defects.Main.onJump:13: error FL006: intent target com.defects.Nowhere is not declared in the manifest; the start throws ActivityNotFoundException",
		"com.defects: com.defects.Main.onJump:15: warning FL011: intent action \"com.defects.MISSING\" resolves to no declared activity",
		"fraglint: 4 findings (3 errors, 1 warnings) in 1 apps",
		"",
	}, "\n")
	if got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestJSONOutput(t *testing.T) {
	path := writeSapk(t, defectApp(t))
	stdout, _, code := runCLI(t, "-json", path)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	var ds []lint.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &ds); err != nil {
		t.Fatalf("output is not a diagnostics array: %v\n%s", err, stdout)
	}
	counts := map[string]int{}
	for _, d := range ds {
		if d.App != "com.defects" {
			t.Errorf("diagnostic app = %q, want com.defects", d.App)
		}
		counts[d.Code]++
	}
	for _, code := range []string{"FL002", "FL004", "FL006", "FL011"} {
		if counts[code] == 0 {
			t.Errorf("JSON output missing %s; got %v", code, counts)
		}
	}
}

func TestSeverityThresholdAndExitCodes(t *testing.T) {
	path := writeSapk(t, defectApp(t))

	// Only errors reported: warnings vanish from the output.
	stdout, _, code := runCLI(t, "-severity", "error", path)
	if code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	if strings.Contains(stdout, "warning FL") {
		t.Errorf("-severity error still printed warnings:\n%s", stdout)
	}

	// The demo app has a warning-level finding and no errors.
	if _, _, code := runCLI(t, "demo"); code != 1 {
		t.Errorf("demo exit code = %d, want 1", code)
	}
	if _, _, code := runCLI(t, "-severity", "error", "demo"); code != 0 {
		t.Errorf("demo at -severity error: exit code = %d, want 0", code)
	}

	// Operational failures are exit 3.
	if _, _, code := runCLI(t, "no.such.app"); code != 3 {
		t.Errorf("unknown app exit code = %d, want 3", code)
	}
	if _, _, code := runCLI(t, "-severity", "fatal", "demo"); code != 3 {
		t.Errorf("bad severity exit code = %d, want 3", code)
	}
}

func TestListAndBuiltin(t *testing.T) {
	stdout, _, code := runCLI(t, "-list")
	if code != 0 || !strings.Contains(stdout, "demo") {
		t.Fatalf("-list failed (code %d):\n%s", code, stdout)
	}
	// The whole built-in corpus is clean at severity error.
	stdout, _, code = runCLI(t, "-builtin", "-severity", "error")
	if code != 0 {
		t.Fatalf("-builtin -severity error: exit %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "clean") {
		t.Errorf("expected clean summary, got:\n%s", stdout)
	}
}

func TestStudyMode(t *testing.T) {
	stdout, _, code := runCLI(t, "-study", "-parallel", "8", "-severity", "error")
	if code != 0 {
		t.Fatalf("-study at error severity: exit %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "FRAGLINT STUDY") || !strings.Contains(stdout, "217 total") {
		t.Errorf("study summary malformed:\n%s", stdout)
	}
}

// TestHelp pins -h and -help as a successful run: exit 0 with the usage on
// stderr and no error line.
func TestHelp(t *testing.T) {
	for _, arg := range []string{"-h", "-help"} {
		stdout, stderr, code := runCLI(t, arg)
		if code != 0 || stdout != "" || !strings.Contains(stderr, "Usage of fraglint") || strings.Contains(stderr, "help requested") {
			t.Errorf("fraglint %s: exit %d, stdout %q, stderr %q; want exit 0 and only the usage", arg, code, stdout, stderr)
		}
	}
}

// TestRejectsUnreadFlags pins the flag boundary: a flag the selected run
// never reads, two flags that pick different runs, app arguments to a run
// that picks its own apps and -parallel below 1 all exit 3 with only an
// error message.
func TestRejectsUnreadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-study", "-json"},
		{"-study", "demo"},
		{"-builtin", "com.nonexistent"},
		{"-seed", "9", "-parallel", "4", "demo"},
		{"-list", "-study"},
		{"-study", "-parallel", "-3"},
		{"-study", "-parallel", "0"},
	} {
		stdout, stderr, code := runCLI(t, args...)
		if code != 3 || stdout != "" || stderr == "" {
			t.Errorf("fraglint %v: exit %d, stdout %q, stderr %q; want exit 3 and an error", args, code, stdout, stderr)
		}
	}
}
