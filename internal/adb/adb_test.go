package adb

import (
	"strings"
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/robotium"
)

const pkg = "com.demo.app."

func bridge(t *testing.T) *Bridge {
	t.Helper()
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	return New(app, device.Options{})
}

func TestAmStartLauncher(t *testing.T) {
	b := bridge(t)
	out, err := b.Run("adb shell am start -n com.demo.app/.Main -a android.intent.action.MAIN -c android.intent.category.LAUNCHER")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(out, "Starting: Intent") {
		t.Fatalf("out = %q", out)
	}
	if cur, _ := b.Device().CurrentActivity(); cur != pkg+"Main" {
		t.Fatalf("current = %q", cur)
	}
}

func TestAmStartComponentForms(t *testing.T) {
	b := bridge(t)
	// Full class after the slash.
	if _, err := b.Run("am start -n com.demo.app/com.demo.app.Secret"); err != nil {
		t.Fatalf("full form: %v", err)
	}
	if cur, _ := b.Device().CurrentActivity(); cur != pkg+"Secret" {
		t.Fatalf("current = %q", cur)
	}
	// Shorthand .Cls form.
	if _, err := b.Run("am start -n com.demo.app/.Share"); err != nil {
		t.Fatalf("shorthand: %v", err)
	}
	if cur, _ := b.Device().CurrentActivity(); cur != pkg+"Share" {
		t.Fatalf("current = %q", cur)
	}
}

func TestAmStartCrashSurfacesInOutput(t *testing.T) {
	b := bridge(t)
	out, err := b.Run("am start -n com.demo.app/.Account")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(out, "Error:") || !strings.Contains(out, "token") {
		t.Fatalf("out = %q", out)
	}
}

func TestAmInstrument(t *testing.T) {
	b := bridge(t)
	b.InstallTest("com.demo.app.test", robotium.Script{Name: "t", Ops: []robotium.Op{
		robotium.LaunchMain(),
		robotium.Click(corpus.NavButtonRef("Main", "Detail")),
	}})
	out, err := b.Run("am instrument -w com.demo.app.test android.test.InstrumentationTestRunner")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(out, "OK (1 test)") {
		t.Fatalf("out = %q", out)
	}
	if cur, _ := b.Device().CurrentActivity(); cur != pkg+"Detail" {
		t.Fatalf("current = %q", cur)
	}
	if _, err := b.Run("am instrument -w not.installed"); err == nil {
		t.Fatal("uninstalled test package: want error")
	}
}

func TestAmInstrumentFailureReported(t *testing.T) {
	b := bridge(t)
	b.InstallTest("t", robotium.Script{Ops: []robotium.Op{
		robotium.LaunchMain(),
		robotium.Click("@id/absent"),
	}})
	out, err := b.Run("am instrument -w t/android.test.InstrumentationTestRunner")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !strings.Contains(out, "INSTRUMENTATION_FAILED") {
		t.Fatalf("out = %q", out)
	}
}

func TestUIAutomatorDump(t *testing.T) {
	b := bridge(t)
	if _, err := b.Run("am start -n com.demo.app/.Main -a android.intent.action.MAIN -c android.intent.category.LAUNCHER"); err != nil {
		t.Fatal(err)
	}
	out, err := b.Run("uiautomator dump")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, want := range []string{"<hierarchy", `activity="com.demo.app.Main"`, "main_btn_detail", `<fragment class="com.demo.app.Home"/>`} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestInputCommands(t *testing.T) {
	b := bridge(t)
	mustRun := func(cmd string) {
		t.Helper()
		if _, err := b.Run(cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
	mustRun("am start -n com.demo.app/.Main -a android.intent.action.MAIN -c android.intent.category.LAUNCHER")
	mustRun("input tap " + corpus.NavButtonRef("Main", "Login"))
	mustRun(`input text ` + corpus.InputRef("Login", "Account") + ` "alice"`)
	mustRun("input tap " + corpus.NavButtonRef("Login", "Account"))
	if cur, _ := b.Device().CurrentActivity(); cur != pkg+"Account" {
		t.Fatalf("current = %q", cur)
	}
	mustRun("input keyevent KEYCODE_BACK")
	if cur, _ := b.Device().CurrentActivity(); cur != pkg+"Login" {
		t.Fatalf("after back = %q", cur)
	}
}

func TestAmBroadcast(t *testing.T) {
	app, err := corpus.BuildApp(&corpus.AppSpec{
		Package:    "com.b",
		Activities: []corpus.ActivitySpec{{Name: "Main", Launcher: true}},
		Receivers: []corpus.ReceiverSpec{{
			Name: "R", Actions: []string{"com.b.PING"},
			Sensitive: []string{"ipc/Binder"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var apis []string
	b := New(app, device.Options{Monitor: func(e device.SensitiveEvent) {
		apis = append(apis, e.API)
	}})
	if _, err := b.Run("am start -n com.b/.Main -a android.intent.action.MAIN -c android.intent.category.LAUNCHER"); err != nil {
		t.Fatal(err)
	}
	out, err := b.Run("am broadcast -a com.b.PING")
	if err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if !strings.Contains(out, "Broadcasting: Intent { act=com.b.PING }") {
		t.Fatalf("out = %q", out)
	}
	if len(apis) != 1 || apis[0] != "ipc/Binder" {
		t.Fatalf("apis = %v", apis)
	}
	if _, err := b.Run("am broadcast"); err == nil {
		t.Error("missing -a: want error")
	}
	if _, err := b.Run("am broadcast -x y"); err == nil {
		t.Error("bad flag: want error")
	}
}

// TestLogcat pins that logcat prints the device log the bridge records
// through the device's Hook, and that a caller's own Hook still receives
// every line.
func TestLogcat(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	b := New(app, device.Options{Hook: func(line string) { lines = append(lines, line) }})
	if _, err := b.Run("am start -n com.demo.app/.Main -a android.intent.action.MAIN -c android.intent.category.LAUNCHER"); err != nil {
		t.Fatal(err)
	}
	out, err := b.Run("logcat -d")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "am start") {
		t.Fatalf("logcat = %q", out)
	}
	if joined := strings.Join(lines, "\n"); joined != out {
		t.Fatalf("the caller's Hook saw %q, logcat printed %q", joined, out)
	}
}

func TestBadCommands(t *testing.T) {
	b := bridge(t)
	for _, cmd := range []string{
		"",
		"reboot",
		"am",
		"am bogus",
		"am start",
		"am start -n",
		"am start -x y",
		"uiautomator",
		"logcat -f x",
		"input",
		"input tap",
		"input keyevent KEYCODE_HOME",
		`input text "unterminated`,
	} {
		if _, err := b.Run(cmd); err == nil {
			t.Errorf("%q: want error", cmd)
		}
	}
}

func TestSplitArgs(t *testing.T) {
	got, err := splitArgs(`am start  -n "com.x/.Y"   -a act`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"am", "start", "-n", "com.x/.Y", "-a", "act"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
