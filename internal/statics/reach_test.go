package statics

import (
	"reflect"
	"sort"
	"testing"

	"fragdroid/internal/callgraph"
	"fragdroid/internal/corpus"
	"fragdroid/internal/jdcore"
)

// TestOwnersOfSorted pins the documented ordering: Activities before
// Fragments, then by owner class.
func TestOwnersOfSorted(t *testing.T) {
	rd := &ResourceDeps{ByWidget: map[string][]WidgetLocation{
		"@id/shared": {
			{Ref: "@id/shared", Owner: "com.ex.ZFrag", OwnerKind: OwnerFragment, Layout: "f_z"},
			{Ref: "@id/shared", Owner: "com.ex.BActivity", OwnerKind: OwnerActivity, Layout: "a_b"},
			{Ref: "@id/shared", Owner: "com.ex.AFrag", OwnerKind: OwnerFragment, Layout: "f_a"},
			{Ref: "@id/shared", Owner: "com.ex.AActivity", OwnerKind: OwnerActivity, Layout: "a_a"},
		},
	}}
	got := rd.OwnersOf("@+id/shared")
	want := []string{"com.ex.AActivity", "com.ex.BActivity", "com.ex.AFrag", "com.ex.ZFrag"}
	if len(got) != len(want) {
		t.Fatalf("OwnersOf returned %d locations, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Owner != w {
			t.Errorf("OwnersOf[%d].Owner = %s, want %s", i, got[i].Owner, w)
		}
	}
	for i, loc := range got[:2] {
		if loc.OwnerKind != OwnerActivity {
			t.Errorf("OwnersOf[%d] should be an activity, got %s", i, loc.OwnerKind)
		}
	}
}

// TestExtractionReach checks that the reach accessors return the two
// fixpoints over the app's call graph, on fresh and on decoded extractions
// of the demo app, the 15 Table I apps and family members 0-39, and that the
// ceiling is consistent with the effective sets.
func TestExtractionReach(t *testing.T) {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	fam := corpus.NewFamily(40, 1)
	for i := 0; i < fam.Len(); i++ {
		specs = append(specs, fam.At(i))
	}
	for _, spec := range specs {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.Package, err)
		}
		fresh, err := Extract(app)
		if err != nil {
			t.Fatalf("extract %s: %v", spec.Package, err)
		}
		g := callgraph.Build(app, jdcore.Decompile(app.Program))
		wantLauncher := g.Reach(g.LauncherRoots())
		wantStatic := g.Reach(g.ForcedRoots(fresh.EffectiveActivities))
		data, err := EncodeExtraction(fresh)
		if err != nil {
			t.Fatalf("encode %s: %v", spec.Package, err)
		}
		decoded, err := DecodeExtraction(data, app)
		if err != nil {
			t.Fatalf("decode %s: %v", spec.Package, err)
		}
		for name, ex := range map[string]*Extraction{"fresh": fresh, "decoded": decoded} {
			if !reflect.DeepEqual(ex.LauncherReach(), wantLauncher) {
				t.Errorf("%s %s: LauncherReach differs from the launcher-rooted fixpoint", spec.Package, name)
			}
			if !reflect.DeepEqual(ex.StaticReach(), wantStatic) {
				t.Errorf("%s %s: StaticReach differs from the forced-start fixpoint", spec.Package, name)
			}
		}
		checkCeiling(t, spec.Package, fresh)
	}
	// On the demo app, statically reachable APIs also cover every
	// effective-component site. (Elsewhere a site may sit in a method no
	// root reaches, which FL009 reports.)
	ex := demoExtraction(t)
	apis := ex.StaticReach().APIList()
	for api := range ex.SensitiveSites {
		i := sort.SearchStrings(apis, api)
		if i >= len(apis) || apis[i] != api {
			t.Errorf("demo: SensitiveSites API %s missing from StaticReach.APIs", api)
		}
	}
}

// checkCeiling checks that the forced-start ceiling contains every effective
// activity and the launcher reach.
func checkCeiling(t *testing.T, pkg string, ex *Extraction) {
	t.Helper()
	static, launcher := ex.StaticReach(), ex.LauncherReach()
	// Every effective activity is a forced-start root, hence in the ceiling.
	for _, a := range ex.EffectiveActivities {
		if !static.Activities[a] {
			t.Errorf("%s: effective activity %s missing from StaticReach", pkg, a)
		}
	}
	// Launcher-only reach never exceeds the forced-start ceiling.
	for a := range launcher.Activities {
		if !static.Activities[a] {
			t.Errorf("%s: LauncherReach activity %s missing from StaticReach", pkg, a)
		}
	}
	for f := range launcher.Fragments {
		if !static.Fragments[f] {
			t.Errorf("%s: LauncherReach fragment %s missing from StaticReach", pkg, f)
		}
	}
}
