package corpus

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/layout"
	"fragdroid/internal/smali"
)

func TestDemoSpecValidates(t *testing.T) {
	if err := DemoSpec().Validate(); err != nil {
		t.Fatalf("DemoSpec invalid: %v", err)
	}
}

func TestBuildAppDemo(t *testing.T) {
	app, err := BuildApp(DemoSpec())
	if err != nil {
		t.Fatalf("BuildApp: %v", err)
	}
	if app.Manifest.Package != "com.demo.app" {
		t.Errorf("package = %q", app.Manifest.Package)
	}
	entry, err := app.Manifest.EntryActivity()
	if err != nil || entry != "com.demo.app.Main" {
		t.Fatalf("entry = %q, %v", entry, err)
	}
	// 8 activities + 8 fragments = 16 classes.
	if app.Program.Len() != 16 {
		t.Errorf("classes = %d (%v)", app.Program.Len(), app.Program.Names())
	}
	// One layout per activity and fragment.
	if len(app.Layouts) != 16 {
		t.Errorf("layouts = %d (%v)", len(app.Layouts), app.LayoutNames())
	}
	// The action transition target carries its intent filter.
	if got, ok := app.Manifest.ActivityForAction("com.demo.app.SHARE"); !ok || got != "com.demo.app.Share" {
		t.Errorf("action resolution = %q, %v", got, ok)
	}
	// Isolated activity declared but classes exist.
	if !app.Manifest.HasActivity("com.demo.app.Lonely") {
		t.Error("isolated activity missing from manifest")
	}
}

func TestGeneratedStructure(t *testing.T) {
	app, err := BuildApp(DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	main := app.Program.Class("com.demo.app.Main")
	if main == nil {
		t.Fatal("Main class missing")
	}
	if main.Method("onCreate") == nil || main.Method("onGoDetail") == nil {
		t.Fatal("Main missing expected methods")
	}
	if main.Method("onShowRecent") == nil {
		t.Fatal("Main missing tab handler")
	}
	if main.Method("onShowVIP") == nil {
		t.Fatal("Main missing slide-drawer fragment handler")
	}
	// VIP is requires-args.
	vip := app.Program.Class("com.demo.app.VIP")
	if vip == nil || !vip.RequiresArgs {
		t.Fatal("VIP not marked requires-args")
	}
	// Home has the switch handler to Recent targeting Main's container.
	home := app.Program.Class("com.demo.app.Home")
	sw := home.Method("onSwRecent")
	if sw == nil {
		t.Fatal("Home missing switch handler")
	}
	found := false
	for _, ins := range sw.Body {
		if len(ins.Args) == 2 && ins.Args[0] == apk.NormalizeRef(ContainerRef("Main")) {
			found = true
		}
	}
	if !found {
		t.Errorf("switch handler does not target Main's container: %+v", sw.Body)
	}
	// Main's layout: tab button visible, slide drawer hidden without toggle.
	ml := app.Layouts["activity_main"]
	if ml == nil {
		t.Fatal("activity_main layout missing")
	}
	if ml.Find(TabButtonRef("Main", "Recent")) == nil {
		t.Error("tab button missing")
	}
	slide := ml.Find("@id/main_slide")
	if slide == nil || !slide.Hidden {
		t.Error("slide drawer missing or visible")
	}
	if ml.Find(DrawerToggleRef("Main")) != nil {
		t.Error("slide-only drawer must have no toggle")
	}
	// Detail's drawer has a toggle.
	dl := app.Layouts["activity_detail"]
	if dl.Find(DrawerToggleRef("Detail")) == nil {
		t.Error("Detail drawer toggle missing")
	}
	// Settings layout declares the static fragment.
	sl := app.Layouts["activity_settings"]
	sf := sl.StaticFragments()
	if len(sf) != 1 || sf[0] != "com.demo.app.About" {
		t.Errorf("static fragments = %v", sf)
	}
	// Login layout has the gate input field.
	ll := app.Layouts["activity_login"]
	if ll.Find(InputRef("Login", "Account")) == nil {
		t.Error("gate input field missing")
	}
}

// TestBuildAppMatchesArchiveRoundTrip pins the contract of the direct
// in-memory assembly path: BuildApp must produce exactly what serializing
// the spec to an archive and re-loading it produces — same manifest, same
// layouts, same program order, same reference count.
func TestBuildAppMatchesArchiveRoundTrip(t *testing.T) {
	specs := []*AppSpec{DemoSpec()}
	for _, row := range PaperRows()[:3] {
		specs = append(specs, PaperSpec(row))
	}
	for i, spec := range StudySpecs(1) {
		if i%37 == 0 && !spec.Packed {
			specs = append(specs, spec)
		}
	}
	for _, spec := range specs {
		direct, err := BuildApp(spec)
		if err != nil {
			t.Fatalf("%s: BuildApp: %v", spec.Package, err)
		}
		arch, err := BuildArchive(spec)
		if err != nil {
			t.Fatalf("%s: BuildArchive: %v", spec.Package, err)
		}
		loaded, err := apk.Load(arch)
		if err != nil {
			t.Fatalf("%s: Load: %v", spec.Package, err)
		}
		// Compare through the canonical encoders so representational slack
		// (nil vs empty slices) doesn't mask or fake a difference.
		dm, err := direct.Manifest.Encode()
		if err != nil {
			t.Fatal(err)
		}
		lm, err := loaded.Manifest.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dm, lm) {
			t.Errorf("%s: manifests differ", spec.Package)
		}
		if !reflect.DeepEqual(direct.LayoutNames(), loaded.LayoutNames()) {
			t.Fatalf("%s: layout sets differ: %v vs %v",
				spec.Package, direct.LayoutNames(), loaded.LayoutNames())
		}
		for _, n := range direct.LayoutNames() {
			dl, err := direct.Layouts[n].Encode()
			if err != nil {
				t.Fatal(err)
			}
			ll, err := loaded.Layouts[n].Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dl, ll) {
				t.Errorf("%s: layout %s differs", spec.Package, n)
			}
		}
		if !reflect.DeepEqual(direct.Program.Names(), loaded.Program.Names()) {
			t.Fatalf("%s: program order differs:\n%v\n%v",
				spec.Package, direct.Program.Names(), loaded.Program.Names())
		}
		for _, name := range direct.Program.Names() {
			dc, lc := direct.Program.Class(name), loaded.Program.Class(name)
			if dc.SourceFile != lc.SourceFile {
				t.Fatalf("%s: class %s source file %q vs %q",
					spec.Package, name, dc.SourceFile, lc.SourceFile)
			}
			if !bytes.Equal(smali.WriteClass(dc), smali.WriteClass(lc)) {
				t.Fatalf("%s: class %s differs:\n%s\nvs\n%s",
					spec.Package, name, smali.WriteClass(dc), smali.WriteClass(lc))
			}
		}
		// EncodeApp derives its reference count from the layouts, so the
		// loaded app encodes the same with the direct layouts in its place.
		// The direct app itself encodes differently: its instructions carry
		// no source lines and its manifest no element name. A built leaf's
		// empty child list, which Layout.Encode drops, is made nil first, as
		// a parsed leaf's is.
		for _, l := range direct.Layouts {
			l.Walk(func(w *layout.Widget) bool {
				if len(w.Children) == 0 {
					w.Children = nil
				}
				return true
			})
		}
		de, err := apk.EncodeApp(&apk.App{Manifest: loaded.Manifest, Layouts: direct.Layouts, Program: loaded.Program})
		if err != nil {
			t.Fatal(err)
		}
		le, err := apk.EncodeApp(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(de, le) {
			t.Errorf("%s: app encodings differ", spec.Package)
		}
	}
}

func TestBuildPacked(t *testing.T) {
	spec := DemoSpec()
	spec.Packed = true
	arch, err := BuildArchive(spec)
	if err != nil {
		t.Fatalf("BuildArchive: %v", err)
	}
	if !arch.Packed() {
		t.Fatal("archive not marked packed")
	}
	if _, err := BuildApp(spec); err != apk.ErrPacked {
		t.Fatalf("BuildApp packed = %v, want ErrPacked", err)
	}
}

func TestSpecValidationErrors(t *testing.T) {
	base := func() *AppSpec { return DemoSpec() }
	cases := []struct {
		name   string
		mutate func(*AppSpec)
		want   string
	}{
		{"no launcher", func(s *AppSpec) { s.Activities[0].Launcher = false }, "launcher"},
		{"two launchers", func(s *AppSpec) { s.Activities[1].Launcher = true }, "launcher"},
		{"dup activity", func(s *AppSpec) { s.Activities = append(s.Activities, ActivitySpec{Name: "Main"}) }, "duplicate"},
		{"dup fragment", func(s *AppSpec) { s.Fragments = append(s.Fragments, FragmentSpec{Name: "Home"}) }, "duplicate"},
		{"unknown transition", func(s *AppSpec) {
			s.Transition = append(s.Transition, Transition{From: "Main", To: "Nope", Kind: TransButton})
		}, "unknown activity"},
		{"self transition", func(s *AppSpec) {
			s.Transition = append(s.Transition, Transition{From: "Main", To: "Main", Kind: TransButton})
		}, "self"},
		{"action without action", func(s *AppSpec) {
			s.Transition = append(s.Transition, Transition{From: "Main", To: "Share", Kind: TransAction})
		}, "without action"},
		{"isolated with edge", func(s *AppSpec) {
			s.Transition = append(s.Transition, Transition{From: "Main", To: "Lonely", Kind: TransButton})
		}, "isolated"},
		{"unknown wire", func(s *AppSpec) {
			s.Activities[0].Wires = append(s.Activities[0].Wires, FragmentWire{Fragment: "Nope", Kind: WireTxnOnCreate})
		}, "unknown fragment"},
		{"cross-host switch", func(s *AppSpec) {
			s.Switches = append(s.Switches, FragmentSwitch{From: "Home", To: "Promo"})
		}, "crosses hosts"},
		{"switch unwired", func(s *AppSpec) {
			s.Fragments = append(s.Fragments, FragmentSpec{Name: "Float"})
			s.Switches = append(s.Switches, FragmentSwitch{From: "Float", To: "Home"})
		}, "unwired"},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

func TestGateValue(t *testing.T) {
	if GateValue(&InputGate{Expected: "alice"}, "X") != "alice" {
		t.Error("explicit gate value ignored")
	}
	if GateValue(&InputGate{}, "Account") != "letmein-account" {
		t.Errorf("default gate value = %q", GateValue(&InputGate{}, "Account"))
	}
	if GateValue(nil, "Account") != "letmein-account" {
		t.Error("nil gate default broken")
	}
}
