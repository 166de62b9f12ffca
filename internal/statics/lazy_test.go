package statics_test

import (
	"reflect"
	"sync"
	"testing"

	"fragdroid/internal/callgraph"
	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/jdcore"
	"fragdroid/internal/statics"
)

func paperSpec(t testing.TB, pkg string) *corpus.AppSpec {
	t.Helper()
	for _, row := range corpus.PaperRows() {
		if row.Package == pkg {
			return corpus.PaperSpec(row)
		}
	}
	t.Fatalf("no Table I app %s", pkg)
	return nil
}

// TestExtractLeavesGraphAndReachUnbuilt pins what keeps exploration and
// triage cheap: Extract builds neither the call graph nor the reach sets,
// and an exploration of the extraction, which reads neither, leaves them
// unbuilt. The first reach accessor then builds all three.
func TestExtractLeavesGraphAndReachUnbuilt(t *testing.T) {
	for _, spec := range []*corpus.AppSpec{corpus.DemoSpec(), paperSpec(t, "com.adobe.reader")} {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := statics.Extract(app)
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string, want bool) {
			t.Helper()
			graph, static, launcher := statics.Built(ex)
			if graph != want || static != want || launcher != want {
				t.Errorf("%s %s: built graph=%v staticReach=%v launcherReach=%v, want all %v",
					spec.Package, when, graph, static, launcher, want)
			}
		}
		check("after Extract", false)
		if _, err := explorer.ExploreExtracted(ex, explorer.DefaultConfig()); err != nil {
			t.Fatal(err)
		}
		check("after ExploreExtracted", false)
		ex.StaticReach()
		check("after StaticReach", true)
	}
}

// TestLazyAccessorsConcurrent calls the lazily building accessors from
// eight goroutines at once, on a fresh extraction and on a decoded one, in
// varying orders so the reach build races the graph build; run it with
// -race. Every goroutine must see the same graph and reach sets, equal to
// the fixpoints over an independently built graph.
func TestLazyAccessorsConcurrent(t *testing.T) {
	app, err := corpus.BuildApp(paperSpec(t, "com.adobe.reader"))
	if err != nil {
		t.Fatal(err)
	}
	// Encoding builds the lazy parts, so the payload comes from an
	// extraction other than the fresh one under test.
	encoded, err := statics.Extract(app)
	if err != nil {
		t.Fatal(err)
	}
	data, err := statics.EncodeExtraction(encoded)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := statics.Extract(app)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := statics.DecodeExtraction(data, app)
	if err != nil {
		t.Fatal(err)
	}
	g := callgraph.Build(app, jdcore.Decompile(app.Program))
	wantStatic := g.Reach(g.ForcedRoots(fresh.EffectiveActivities))
	wantLauncher := g.Reach(g.LauncherRoots())

	type seen struct {
		graph            *callgraph.Graph
		static, launcher *callgraph.Reach
	}
	for name, ex := range map[string]*statics.Extraction{"fresh": fresh, "decoded": decoded} {
		const n = 8
		got := make([]seen, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := &got[i]
				switch i % 3 {
				case 0:
					s.graph, s.static, s.launcher = ex.Graph(), ex.StaticReach(), ex.LauncherReach()
				case 1:
					s.launcher, s.static, s.graph = ex.LauncherReach(), ex.StaticReach(), ex.Graph()
				default:
					s.static, s.graph, s.launcher = ex.StaticReach(), ex.Graph(), ex.LauncherReach()
				}
			}(i)
		}
		wg.Wait()
		for i, s := range got {
			if s != got[0] || s.graph == nil || s.static == nil || s.launcher == nil {
				t.Fatalf("%s: goroutine %d saw %+v, goroutine 0 saw %+v", name, i, s, got[0])
			}
		}
		if !reflect.DeepEqual(got[0].static, wantStatic) || !reflect.DeepEqual(got[0].launcher, wantLauncher) {
			t.Errorf("%s: concurrent reach sets differ from the fixpoints over a fresh graph", name)
		}
	}
}
