package device

import (
	"errors"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
)

const pkg = "com.demo.app."

func demoDevice(t *testing.T, opts Options) *Device {
	t.Helper()
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatalf("BuildApp: %v", err)
	}
	return New(app, opts)
}

func launch(t *testing.T, d *Device) {
	t.Helper()
	if err := d.LaunchMain(); err != nil {
		t.Fatalf("LaunchMain: %v", err)
	}
}

func TestLaunchMain(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	cur, err := d.CurrentActivity()
	if err != nil || cur != pkg+"Main" {
		t.Fatalf("current = %q, %v", cur, err)
	}
	dump, err := d.Dump()
	if err != nil {
		t.Fatal(err)
	}
	// Home is committed in onCreate through the FragmentManager.
	if len(dump.FMFragments) != 1 || dump.FMFragments[0] != pkg+"Home" {
		t.Fatalf("FMFragments = %v", dump.FMFragments)
	}
	// The slide drawer's contents are present but invisible.
	for _, w := range dump.Widgets {
		if w.Ref == apk.NormalizeRef("@id/main_smenu_secret") && w.Visible {
			t.Error("slide-drawer button visible without gesture")
		}
	}
}

func TestInteractionsBeforeLaunch(t *testing.T) {
	d := demoDevice(t, Options{})
	if _, err := d.CurrentActivity(); !errors.Is(err, ErrNotRunning) {
		t.Errorf("CurrentActivity = %v", err)
	}
	if err := d.Click("@id/x"); !errors.Is(err, ErrNotRunning) {
		t.Errorf("Click = %v", err)
	}
}

func TestTabSwitchFragment(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	// Figure 1: clicking the RECENT tab replaces the fragment.
	if err := d.Click(corpus.TabButtonRef("Main", "Recent")); err != nil {
		t.Fatalf("tab click: %v", err)
	}
	dump, _ := d.Dump()
	if len(dump.FMFragments) != 1 || dump.FMFragments[0] != pkg+"Recent" {
		t.Fatalf("after tab, FMFragments = %v", dump.FMFragments)
	}
	// Fragment widgets appear in the dump and are attributed to the fragment.
	found := false
	for _, w := range dump.Widgets {
		if w.FromFragment == pkg+"Recent" {
			found = true
		}
		if w.FromFragment == pkg+"Home" {
			t.Error("stale Home widgets in dump after replace")
		}
	}
	if !found {
		t.Fatal("Recent fragment widgets missing from dump")
	}
}

func TestFragmentToFragmentSwitch(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	// Home's own switch button replaces Home with Recent (E3).
	if err := d.Click(corpus.SwitchButtonRef("Home", "Recent")); err != nil {
		t.Fatalf("switch click: %v", err)
	}
	dump, _ := d.Dump()
	if len(dump.FMFragments) != 1 || dump.FMFragments[0] != pkg+"Recent" {
		t.Fatalf("FMFragments = %v", dump.FMFragments)
	}
}

func TestActivityNavigation(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	if err := d.Click(corpus.NavButtonRef("Main", "Detail")); err != nil {
		t.Fatalf("nav click: %v", err)
	}
	if cur, _ := d.CurrentActivity(); cur != pkg+"Detail" {
		t.Fatalf("current = %q", cur)
	}
	if err := d.Back(); err != nil {
		t.Fatal(err)
	}
	if cur, _ := d.CurrentActivity(); cur != pkg+"Main" {
		t.Fatalf("after back = %q", cur)
	}
}

func TestDrawerToggleFlow(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	if err := d.Click(corpus.NavButtonRef("Main", "Detail")); err != nil {
		t.Fatal(err)
	}
	// The drawer menu button is hidden before toggling.
	err := d.Click(corpus.MenuButtonRef("Detail", "Settings"))
	if !errors.Is(err, ErrHidden) {
		t.Fatalf("hidden click err = %v", err)
	}
	if err := d.Click(corpus.DrawerToggleRef("Detail")); err != nil {
		t.Fatalf("toggle: %v", err)
	}
	if err := d.Click(corpus.MenuButtonRef("Detail", "Settings")); err != nil {
		t.Fatalf("menu click after toggle: %v", err)
	}
	if cur, _ := d.CurrentActivity(); cur != pkg+"Settings" {
		t.Fatalf("current = %q", cur)
	}
}

func TestDrawerFragmentFlow(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	if err := d.Click(corpus.NavButtonRef("Main", "Detail")); err != nil {
		t.Fatal(err)
	}
	if err := d.Click(corpus.DrawerToggleRef("Detail")); err != nil {
		t.Fatal(err)
	}
	if err := d.Click(corpus.MenuFragButtonRef("Detail", "Promo")); err != nil {
		t.Fatalf("drawer fragment click: %v", err)
	}
	dump, _ := d.Dump()
	if len(dump.FMFragments) != 1 || dump.FMFragments[0] != pkg+"Promo" {
		t.Fatalf("FMFragments = %v", dump.FMFragments)
	}
}

func TestImplicitIntentNavigation(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	if err := d.Click(corpus.NavButtonRef("Main", "Detail")); err != nil {
		t.Fatal(err)
	}
	if err := d.Click("@id/detail_act_share"); err != nil {
		t.Fatalf("action click: %v", err)
	}
	if cur, _ := d.CurrentActivity(); cur != pkg+"Share" {
		t.Fatalf("current = %q", cur)
	}
}

func TestInputGate(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	if err := d.Click(corpus.NavButtonRef("Main", "Login")); err != nil {
		t.Fatal(err)
	}
	// Wrong (empty) input: stays on Login, error dialog appears.
	if err := d.Click(corpus.NavButtonRef("Login", "Account")); err != nil {
		t.Fatal(err)
	}
	if cur, _ := d.CurrentActivity(); cur != pkg+"Login" {
		t.Fatalf("gate let us through: %q", cur)
	}
	if !d.HasDialog() {
		t.Fatal("no error dialog after failed gate")
	}
	if err := d.DismissDialog(); err != nil {
		t.Fatal(err)
	}
	// Correct input: proceeds, and the extras put by the handler satisfy
	// Account's require-extra.
	if err := d.EnterText(corpus.InputRef("Login", "Account"), "alice"); err != nil {
		t.Fatal(err)
	}
	if err := d.Click(corpus.NavButtonRef("Login", "Account")); err != nil {
		t.Fatal(err)
	}
	if cur, _ := d.CurrentActivity(); cur != pkg+"Account" {
		t.Fatalf("current = %q", cur)
	}
}

func TestDialogInterceptsClicks(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	if err := d.Click(corpus.NavButtonRef("Main", "Login")); err != nil {
		t.Fatal(err)
	}
	if err := d.Click(corpus.NavButtonRef("Login", "Account")); err != nil {
		t.Fatal(err)
	}
	if !d.HasDialog() {
		t.Fatal("expected dialog")
	}
	// A click while the dialog shows dismisses it and does NOT navigate.
	if err := d.Click(corpus.NavButtonRef("Login", "Account")); err != nil {
		t.Fatal(err)
	}
	if d.HasDialog() {
		t.Fatal("dialog still showing")
	}
	if cur, _ := d.CurrentActivity(); cur != pkg+"Login" {
		t.Fatalf("dialog click navigated to %q", cur)
	}
}

func TestForceStart(t *testing.T) {
	d := demoDevice(t, Options{})
	// Secret is normally reachable only via the slide drawer; forced start
	// reaches it directly.
	if err := d.ForceStart(pkg + "Secret"); err != nil {
		t.Fatalf("ForceStart Secret: %v", err)
	}
	if cur, _ := d.CurrentActivity(); cur != pkg+"Secret" {
		t.Fatalf("current = %q", cur)
	}
	// Account requires an intent extra: the empty forced intent crashes.
	if err := d.ForceStart(pkg + "Account"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ForceStart Account err = %v", err)
	}
	if !d.Crashed() || !strings.Contains(d.CrashReason(), "token") {
		t.Fatalf("crash state = %v %q", d.Crashed(), d.CrashReason())
	}
	// Undeclared component.
	if err := d.ForceStart(pkg + "Nope"); err == nil {
		t.Fatal("ForceStart undeclared: want error")
	}
	// Relaunch recovers from the crash.
	if err := d.LaunchMain(); err != nil {
		t.Fatalf("relaunch: %v", err)
	}
	if d.Crashed() {
		t.Fatal("still crashed after relaunch")
	}
}

func TestReflection(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	// VIP requires args: reflection must fail with a ReflectionError.
	err := d.Reflect(pkg+"VIP", corpus.ContainerRef("Main"))
	var re *ReflectionError
	if !errors.As(err, &re) || !strings.Contains(re.Reason, "parameters") {
		t.Fatalf("Reflect VIP err = %v", err)
	}
	// Recent reflects fine into Main's container.
	if err := d.Reflect(pkg+"Recent", corpus.ContainerRef("Main")); err != nil {
		t.Fatalf("Reflect Recent: %v", err)
	}
	dump, _ := d.Dump()
	if len(dump.FMFragments) != 1 || dump.FMFragments[0] != pkg+"Recent" {
		t.Fatalf("FMFragments = %v", dump.FMFragments)
	}
	// Settings never obtains a FragmentManager: reflection fails there.
	if err := d.ForceStart(pkg + "Settings"); err != nil {
		t.Fatal(err)
	}
	err = d.Reflect(pkg+"Lab", corpus.ContainerRef("Settings"))
	if !errors.As(err, &re) || !strings.Contains(re.Reason, "FragmentManager") {
		t.Fatalf("Reflect in Settings err = %v", err)
	}
}

func TestInflateViewIsInvisibleToInstrumentation(t *testing.T) {
	d := demoDevice(t, Options{})
	if err := d.ForceStart(pkg + "Settings"); err != nil {
		t.Fatal(err)
	}
	dump, _ := d.Dump()
	// About (static <fragment>) is FM-backed; Lab (inflate-view) is not.
	if len(dump.FMFragments) != 1 || dump.FMFragments[0] != pkg+"About" {
		t.Fatalf("FMFragments = %v", dump.FMFragments)
	}
	truth := d.ActiveFragments()
	if viaFM, ok := truth[pkg+"Lab"]; !ok || viaFM {
		t.Fatalf("ground truth for Lab = %v, %v", viaFM, ok)
	}
	if viaFM, ok := truth[pkg+"About"]; !ok || !viaFM {
		t.Fatalf("ground truth for About = %v, %v", viaFM, ok)
	}
	// Lab's widgets are still on screen (the view exists).
	found := false
	for _, w := range dump.Widgets {
		if w.FromFragment == pkg+"Lab" {
			found = true
		}
	}
	if !found {
		t.Fatal("inflated fragment widgets missing from dump")
	}
}

func TestSensitiveMonitorAttribution(t *testing.T) {
	var events []SensitiveEvent
	d := demoDevice(t, Options{Monitor: func(e SensitiveEvent) { events = append(events, e) }})
	launch(t, d)
	byAPI := make(map[string]SensitiveEvent)
	for _, e := range events {
		byAPI[e.API] = e
	}
	act, ok := byAPI["internet/connect"]
	if !ok || act.InFragment || act.Class != pkg+"Main" {
		t.Fatalf("activity attribution = %+v, %v", act, ok)
	}
	frag, ok := byAPI["internet/inet"]
	if !ok || !frag.InFragment || frag.Class != pkg+"Home" || frag.Activity != pkg+"Main" {
		t.Fatalf("fragment attribution = %+v, %v", frag, ok)
	}
}

func TestClickErrors(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	if err := d.Click("@id/absent"); !errors.Is(err, ErrNoSuchWidget) {
		t.Errorf("absent = %v", err)
	}
	if err := d.Click("@id/main_title"); !errors.Is(err, ErrNotClickable) {
		t.Errorf("textview = %v", err)
	}
	if err := d.EnterText("@id/main_title", "x"); !errors.Is(err, ErrNotEditable) {
		t.Errorf("enter into textview = %v", err)
	}
}

func TestStepsAndEvents(t *testing.T) {
	var log logRecorder
	d := demoDevice(t, Options{Hook: log.hook})
	launch(t, d)
	if d.Steps() == 0 {
		t.Fatal("no steps counted")
	}
	joined := log.String()
	if !strings.Contains(joined, "am start") {
		t.Fatalf("events missing launch record:\n%s", joined)
	}
}

func TestBackToExit(t *testing.T) {
	d := demoDevice(t, Options{})
	launch(t, d)
	if err := d.Back(); err != nil {
		t.Fatal(err)
	}
	if d.Running() {
		t.Fatal("still running after backing out of the root activity")
	}
	if err := d.Back(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("back on empty stack = %v", err)
	}
}
