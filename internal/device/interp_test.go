package device

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/manifest"
)

// makeApp assembles an app from raw sources through the real parsers.
func makeApp(t *testing.T, activities []string, layouts map[string]string, classes map[string]string) *apk.App {
	t.Helper()
	arch := apk.NewArchive()
	mb := manifest.NewBuilder("t")
	for i, a := range activities {
		if i == 0 {
			mb.Launcher(a)
		} else {
			mb.Activity(a)
		}
	}
	man, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := man.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := arch.Put(apk.ManifestPath, data); err != nil {
		t.Fatal(err)
	}
	for name, xml := range layouts {
		if err := arch.Put(apk.LayoutDir+name+".xml", []byte(xml)); err != nil {
			t.Fatal(err)
		}
	}
	for cls, src := range classes {
		p := apk.SmaliDir + strings.ReplaceAll(cls, ".", "/") + ".smali"
		if err := arch.Put(p, []byte(src)); err != nil {
			t.Fatal(err)
		}
	}
	app, err := apk.Load(arch)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return app
}

func TestFinishPopsActivity(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A", "t.B"},
		map[string]string{
			"a": `<LinearLayout id="@+id/a_root"><Button id="@+id/go" onClick="onGo"/></LinearLayout>`,
			"b": `<LinearLayout id="@+id/b_root"><Button id="@+id/bye" onClick="onBye"/></LinearLayout>`,
		},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method
.method onGo()V
    new-intent Lt/A; Lt/B;
    start-activity
.end method`,
			"t.B": `
.class Lt/B;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/b
.end method
.method onBye()V
    finish
.end method`,
		})
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Click("@id/go"); err != nil {
		t.Fatal(err)
	}
	if cur, _ := d.CurrentActivity(); cur != "t.B" {
		t.Fatalf("current = %q", cur)
	}
	if err := d.Click("@id/bye"); err != nil {
		t.Fatal(err)
	}
	if cur, _ := d.CurrentActivity(); cur != "t.A" {
		t.Fatalf("after finish = %q", cur)
	}
}

func TestTxnRemoveAndSetText(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A"},
		map[string]string{
			"a": `<LinearLayout id="@+id/a_root">
  <TextView id="@+id/label" text="before"/>
  <Button id="@+id/rm" onClick="onRemove"/>
  <Button id="@+id/st" onClick="onSetText"/>
  <FrameLayout id="@+id/c"/>
</LinearLayout>`,
			"f": `<LinearLayout id="@+id/f_root"/>`,
		},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
    get-fragment-manager
    begin-transaction
    txn-add @id/c Lt/F;
    txn-commit
.end method
.method onRemove()V
    get-fragment-manager
    begin-transaction
    txn-remove Lt/F;
    txn-commit
.end method
.method onSetText()V
    set-text @id/label "after"
.end method`,
			"t.F": `
.class Lt/F;
.super Landroid/app/Fragment;
.method onCreateView()V
    set-content-view @layout/f
.end method`,
		})
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	dump, _ := d.Dump()
	if len(dump.FMFragments) != 1 {
		t.Fatalf("FMFragments = %v", dump.FMFragments)
	}
	if err := d.Click("@id/rm"); err != nil {
		t.Fatal(err)
	}
	dump, _ = d.Dump()
	if len(dump.FMFragments) != 0 {
		t.Fatalf("after remove: %v", dump.FMFragments)
	}
	if err := d.Click("@id/st"); err != nil {
		t.Fatal(err)
	}
	dump, _ = d.Dump()
	for _, w := range dump.Widgets {
		if w.Ref == "@id/label" && w.Text != "after" {
			t.Fatalf("label text = %q", w.Text)
		}
	}
}

// TestTxnRemoveThenReAdd pins that a fragment removed from its container and
// then added again is one live fragment, not two: the dump lists it once in
// FMFragments and each of its widgets once, and the widgets stay clickable
// through both an XML onClick and a code-registered listener.
func TestTxnRemoveThenReAdd(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A"},
		map[string]string{
			"a": `<LinearLayout id="@+id/a_root">
  <Button id="@+id/add" onClick="onAdd"/>
  <Button id="@+id/rm" onClick="onRemove"/>
  <FrameLayout id="@+id/c"/>
</LinearLayout>`,
			"f": `<LinearLayout id="@+id/f_root">
  <Button id="@+id/f_xml" onClick="onXML"/>
  <Button id="@+id/f_code"/>
</LinearLayout>`,
		},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method
.method onAdd()V
    get-fragment-manager
    begin-transaction
    txn-add @id/c Lt/F;
    txn-commit
.end method
.method onRemove()V
    get-fragment-manager
    begin-transaction
    txn-remove Lt/F;
    txn-commit
.end method`,
			"t.F": `
.class Lt/F;
.super Landroid/app/Fragment;
.method onCreateView()V
    set-content-view @layout/f
    set-click-listener @id/f_code onCode
.end method
.method onXML()V
    log "xml handler ran"
.end method
.method onCode()V
    log "code handler ran"
.end method`,
		})
	for _, mode := range []string{"ir", "classic"} {
		t.Run(mode, func(t *testing.T) {
			var log logRecorder
			d := New(app, Options{Interp: mode, Hook: log.hook})
			if err := d.LaunchMain(); err != nil {
				t.Fatal(err)
			}
			for _, ref := range []string{"@id/add", "@id/rm", "@id/add"} {
				if err := d.Click(ref); err != nil {
					t.Fatalf("click %s: %v", ref, err)
				}
			}
			dump, err := d.Dump()
			if err != nil {
				t.Fatal(err)
			}
			if len(dump.FMFragments) != 1 || dump.FMFragments[0] != "t.F" {
				t.Fatalf("FMFragments = %v, want [t.F]", dump.FMFragments)
			}
			seen := make(map[string]int)
			for _, w := range dump.Widgets {
				seen[w.Ref]++
			}
			for _, ref := range []string{"@id/a_root", "@id/add", "@id/rm", "@id/c", "@id/f_root", "@id/f_xml", "@id/f_code"} {
				if seen[ref] != 1 {
					t.Errorf("%s listed %d times in the dump, want once", ref, seen[ref])
				}
			}
			if len(dump.Widgets) != 7 {
				t.Errorf("the dump lists %d widgets, want 7", len(dump.Widgets))
			}
			clickable := dump.ClickableRefs()
			for _, ref := range []string{"@id/f_xml", "@id/f_code"} {
				if !slices.Contains(clickable, ref) {
					t.Errorf("%s is not clickable; clickable: %v", ref, clickable)
				}
				if err := d.Click(ref); err != nil {
					t.Errorf("click %s: %v", ref, err)
				}
			}
			if got := log.String(); !strings.Contains(got, "xml handler ran") || !strings.Contains(got, "code handler ran") {
				t.Fatalf("a re-added fragment's handler did not run:\n%s", got)
			}
		})
	}
}

func TestANRDepthGuard(t *testing.T) {
	// A and B start each other from onCreate: an unbounded launch loop.
	app := makeApp(t,
		[]string{"t.A", "t.B"},
		map[string]string{
			"a": `<LinearLayout id="@+id/a_root"/>`,
		},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
    new-intent Lt/A; Lt/B;
    start-activity
.end method`,
			"t.B": `
.class Lt/B;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
    new-intent Lt/B; Lt/A;
    start-activity
.end method`,
		})
	d := New(app, Options{MaxStartDepth: 8})
	err := d.LaunchMain()
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("launch err = %v", err)
	}
	if !strings.Contains(d.CrashReason(), "ANR") {
		t.Fatalf("reason = %q", d.CrashReason())
	}
}

func TestExplicitCrashOpAndRelaunch(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A"},
		map[string]string{
			"a": `<LinearLayout id="@+id/a_root"><Button id="@+id/boom" onClick="onBoom"/></LinearLayout>`,
		},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method
.method onBoom()V
    crash "NullPointerException in handler"
.end method`,
		})
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Click("@id/boom"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("click err = %v", err)
	}
	if !strings.Contains(d.CrashReason(), "NullPointerException") {
		t.Fatalf("reason = %q", d.CrashReason())
	}
	if err := d.LaunchMain(); err != nil {
		t.Fatalf("relaunch: %v", err)
	}
}

func TestUnknownActionCrashes(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A"},
		map[string]string{
			"a": `<LinearLayout id="@+id/a_root"><Button id="@+id/go" onClick="onGo"/></LinearLayout>`,
		},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method
.method onGo()V
    new-intent-action "t.NO_SUCH_ACTION"
    start-activity
.end method`,
		})
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Click("@id/go"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("click err = %v", err)
	}
	if !strings.Contains(d.CrashReason(), "ActivityNotFound") {
		t.Fatalf("reason = %q", d.CrashReason())
	}
}

func TestMethodInheritance(t *testing.T) {
	// A handler defined on a base activity class is found on the subclass.
	app := makeApp(t,
		[]string{"t.Child"},
		map[string]string{
			"c": `<LinearLayout id="@+id/c_root"><Button id="@+id/go" onClick="onShared"/></LinearLayout>`,
		},
		map[string]string{
			"t.Base": `
.class Lt/Base;
.super Landroid/app/Activity;
.method onShared()V
    log "inherited handler ran"
.end method`,
			"t.Child": `
.class Lt/Child;
.super Lt/Base;
.method onCreate()V
    set-content-view @layout/c
.end method`,
		})
	var log logRecorder
	d := New(app, Options{Hook: log.hook})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Click("@id/go"); err != nil {
		t.Fatalf("inherited handler: %v", err)
	}
	if !strings.Contains(log.String(), "inherited handler ran") {
		t.Fatal("base-class handler did not execute")
	}
}

func TestMissingHandlerCrashes(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A"},
		map[string]string{
			"a": `<LinearLayout id="@+id/a_root"><Button id="@+id/go" onClick="noSuchMethod"/></LinearLayout>`,
		},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method`,
		})
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Click("@id/go"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("click err = %v", err)
	}
	if !strings.Contains(d.CrashReason(), "NoSuchMethod") {
		t.Fatalf("reason = %q", d.CrashReason())
	}
}

func TestDumpString(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A"},
		map[string]string{
			"a": `<LinearLayout id="@+id/a_root"><Button id="@+id/go" onClick="onGo"/></LinearLayout>`,
		},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method
.method onGo()V
    nop
.end method`,
		})
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	dump, _ := d.Dump()
	s := dump.String()
	for _, want := range []string{"activity=t.A", "@id/go", "Button", "VC"} {
		if !strings.Contains(s, want) {
			t.Errorf("Dump.String missing %q:\n%s", want, s)
		}
	}
}
