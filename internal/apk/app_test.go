package apk

import (
	"strings"
	"testing"

	"fragdroid/internal/layout"
	"fragdroid/internal/manifest"
	"fragdroid/internal/smali"
)

// demoArchive assembles a minimal but complete app through the real encoders:
// one launcher activity with a layout, one fragment, one secondary activity.
func demoArchive(t *testing.T) *Archive {
	t.Helper()
	a := NewArchive()

	man, err := manifest.NewBuilder("com.demo").
		Launcher("com.demo.MainActivity").
		Activity("com.demo.DetailActivity").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	manData, err := man.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put(ManifestPath, manData); err != nil {
		t.Fatal(err)
	}

	mainLayout := layout.Root(layout.TypeLinearLayout).ID("@id/root").Child(
		layout.Root(layout.TypeButton).ID("@id/btn_detail").Text("Detail").OnClick("onDetail"),
		layout.Root(layout.TypeFrameLayout).ID("@id/container"),
	).BuildLayout("activity_main")
	detailLayout := layout.Root(layout.TypeLinearLayout).ID("@id/droot").Child(
		layout.Root(layout.TypeTextView).ID("@id/dtext").Text("detail"),
	).BuildLayout("activity_detail")
	fragLayout := layout.Root(layout.TypeLinearLayout).ID("@id/froot").
		BuildLayout("fragment_home")
	for _, l := range []*layout.Layout{mainLayout, detailLayout, fragLayout} {
		data, err := l.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Put(LayoutDir+l.Name+".xml", data); err != nil {
			t.Fatal(err)
		}
	}

	code := map[string]string{
		"com/demo/MainActivity": `
.class public Lcom/demo/MainActivity;
.super Landroid/app/Activity;
.method public onCreate()V
    set-content-view @layout/activity_main
    get-fragment-manager
    begin-transaction
    txn-add @id/container Lcom/demo/HomeFragment;
    txn-commit
.end method
.method public onDetail()V
    new-intent Lcom/demo/MainActivity; Lcom/demo/DetailActivity;
    start-activity
.end method
`,
		"com/demo/DetailActivity": `
.class public Lcom/demo/DetailActivity;
.super Landroid/app/Activity;
.method public onCreate()V
    set-content-view @layout/activity_detail
.end method
`,
		"com/demo/HomeFragment": `
.class public Lcom/demo/HomeFragment;
.super Landroid/app/Fragment;
.method public onCreateView()V
    set-content-view @layout/fragment_home
.end method
`,
	}
	for p, src := range code {
		if err := a.Put(SmaliDir+p+".smali", []byte(src)); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

func TestLoad(t *testing.T) {
	app, err := Load(demoArchive(t))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if app.Manifest.Package != "com.demo" {
		t.Errorf("package = %q", app.Manifest.Package)
	}
	if len(app.Layouts) != 3 {
		t.Errorf("layouts = %v", app.LayoutNames())
	}
	if app.Program.Len() != 3 {
		t.Errorf("classes = %v", app.Program.Names())
	}
	if !app.Program.IsFragmentClass("com.demo.HomeFragment") {
		t.Error("HomeFragment not a fragment class")
	}
}

// TestLoadRejectsNestedDuplicateLayout checks that a layout file in a
// subdirectory whose base name repeats another layout's is rejected, as
// Assemble and DecodeApp reject a duplicate layout, instead of silently
// replacing the first. The nested copy is identical, so nothing but the
// duplicate check can fail the load.
func TestLoadRejectsNestedDuplicateLayout(t *testing.T) {
	a := demoArchive(t)
	data, ok := a.Get(LayoutDir + "activity_main.xml")
	if !ok {
		t.Fatal("demo archive has no activity_main layout")
	}
	if err := a.Put(LayoutDir+"sub/activity_main.xml", data); err != nil {
		t.Fatal(err)
	}
	const want = "apk: duplicate layout activity_main"
	if _, err := Load(a); err == nil || err.Error() != want {
		t.Fatalf("Load with a nested duplicate layout: err %v, want %q", err, want)
	}
}

// TestLintResolvesReferences checks how Lint resolves the resource
// reference of a code operand against what the layouts define: widget IDs
// in either spelling, and layouts only by @layout.
func TestLintResolvesReferences(t *testing.T) {
	const unresolved = `res: unresolved resource reference `
	cases := []struct {
		name, ref string
		want      string // the error's tail; empty resolves
	}{
		{"widget id", "@id/btn_detail", ""},
		{"new-id spelling in code", "@+id/btn_detail", ""},
		{"new-id spelling in the layout", "@id/plus_root", ""},
		{"layout", "@layout/activity_main", ""},
		{"missing layout", "@layout/no_such_layout", unresolved + `"@layout/no_such_layout"`},
		{"id never names a layout", "@id/activity_main", unresolved + `"@id/activity_main"`},
		{"layout never names a widget", "@layout/btn_detail", unresolved + `"@layout/btn_detail"`},
		{"malformed", "@id/", `res: malformed reference "@id/", want @kind/name`},
		{"unknown kind", "@+bogus/x", `res: unknown resource kind "bogus" in "@bogus/x"`},
		{"undefined", "@+id/missing", unresolved + `"@id/missing"`},
	}
	for _, tc := range cases {
		a := demoArchive(t)
		if err := a.Put(LayoutDir+"extra.xml", []byte(`<LinearLayout id="@+id/plus_root"/>`)); err != nil {
			t.Fatal(err)
		}
		src := `
.class public Lcom/demo/DetailActivity;
.super Landroid/app/Activity;
.method public onCreate()V
    set-content-view @layout/activity_detail
    toggle-visible ` + tc.ref + `
.end method
`
		if err := a.Put(SmaliDir+"com/demo/DetailActivity.smali", []byte(src)); err != nil {
			t.Fatal(err)
		}
		_, err := Load(a)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %s: %v", tc.name, tc.ref, err)
		case tc.want != "" && (err == nil || !strings.HasSuffix(err.Error(), ": "+tc.want)):
			t.Errorf("%s: %s: err = %v, want ...: %s", tc.name, tc.ref, err, tc.want)
		}
	}
}

func TestLoadPacked(t *testing.T) {
	a := demoArchive(t)
	a.MarkPacked()
	if _, err := Load(a); err != ErrPacked {
		t.Fatalf("Load packed = %v, want ErrPacked", err)
	}
}

func TestLoadMissingManifest(t *testing.T) {
	a := NewArchive()
	if _, err := Load(a); err == nil || !strings.Contains(err.Error(), "AndroidManifest") {
		t.Fatalf("err = %v", err)
	}
}

func TestLintActivityWithoutClass(t *testing.T) {
	a := demoArchive(t)
	man, _ := manifest.NewBuilder("com.demo").
		Launcher("com.demo.MainActivity").
		Activity("com.demo.GhostActivity").
		Build()
	data, _ := man.Encode()
	if err := a.Put(ManifestPath, data); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(a); err == nil || !strings.Contains(err.Error(), "GhostActivity") {
		t.Fatalf("err = %v", err)
	}
}

func TestLintBadLayoutRef(t *testing.T) {
	a := demoArchive(t)
	src := `
.class public Lcom/demo/DetailActivity;
.super Landroid/app/Activity;
.method public onCreate()V
    set-content-view @layout/no_such_layout
.end method
`
	if err := a.Put(SmaliDir+"com/demo/DetailActivity.smali", []byte(src)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(a); err == nil || !strings.Contains(err.Error(), "no_such_layout") {
		t.Fatalf("err = %v", err)
	}
}

func TestLintTxnTargetNotFragment(t *testing.T) {
	a := demoArchive(t)
	src := `
.class public Lcom/demo/MainActivity;
.super Landroid/app/Activity;
.method public onCreate()V
    set-content-view @layout/activity_main
    txn-add @id/container Lcom/demo/DetailActivity;
.end method
`
	if err := a.Put(SmaliDir+"com/demo/MainActivity.smali", []byte(src)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(a); err == nil || !strings.Contains(err.Error(), "not a Fragment") {
		t.Fatalf("err = %v", err)
	}
}

func TestPackLoadRoundTrip(t *testing.T) {
	app, err := Load(demoArchive(t))
	if err != nil {
		t.Fatal(err)
	}
	arch, err := app.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	back, err := Load(arch)
	if err != nil {
		t.Fatalf("re-Load: %v", err)
	}
	if back.Manifest.Package != app.Manifest.Package ||
		back.Program.Len() != app.Program.Len() ||
		len(back.Layouts) != len(app.Layouts) {
		t.Fatal("round trip lost structure")
	}
	// And the serialized bytes round-trip too.
	back2, err := LoadBytes(arch.Bytes())
	if err != nil {
		t.Fatalf("LoadBytes: %v", err)
	}
	if back2.Manifest.Package != "com.demo" {
		t.Fatal("LoadBytes mismatch")
	}
}

func TestNormalizeRef(t *testing.T) {
	if NormalizeRef("@+id/x") != "@id/x" || NormalizeRef("@id/x") != "@id/x" {
		t.Fatal("NormalizeRef broken")
	}
	_ = smali.ToDescriptor // keep import symmetry visible
}
