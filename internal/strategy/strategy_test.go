package strategy

import (
	"reflect"
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

// corpusExtractions returns the statics extraction of every corpus app: the
// 15 paper rows plus the demo app.
func corpusExtractions(t *testing.T) map[string]*statics.Extraction {
	t.Helper()
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	out := make(map[string]*statics.Extraction, len(specs))
	for _, spec := range specs {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.Package, err)
		}
		ex, err := statics.Extract(app)
		if err != nil {
			t.Fatalf("extract %s: %v", spec.Package, err)
		}
		out[app.Manifest.Package] = ex
	}
	return out
}

// TestStrategySmoke runs every registered strategy on every corpus app at
// budgets 1, 2 and 120 and asserts each returns, reaches at least one
// activity and stays within its budget — the floor any working generator
// must clear. Each engine's loop owns its own termination, so the tiny
// budgets check that every loop stops when the session runs out. Monkey and
// biased bill one test case per injected event, so they bill exactly the
// budget; the script-driven strategies bill at most the budget.
func TestStrategySmoke(t *testing.T) {
	exs := corpusExtractions(t)
	lib, err := CorpusLibrary("")
	if err != nil {
		t.Fatalf("corpus library: %v", err)
	}
	eventBudgeted := map[string]bool{"monkey": true, "biased": true}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, budget := range []int{1, 2, 120} {
				for pkg, ex := range exs {
					out, err := Run(name, ex, Options{
						Budget:  budget,
						Seed:    7,
						Curve:   true,
						Library: lib,
					})
					if err != nil {
						t.Fatalf("%s on %s at budget %d: %v", name, pkg, budget, err)
					}
					if out.Strategy != name {
						t.Errorf("%s on %s: outcome labeled %q", name, pkg, out.Strategy)
					}
					if len(out.VisitedActivities) == 0 {
						t.Errorf("%s on %s at budget %d: reached no activities", name, pkg, budget)
					}
					if out.Stats.TestCases == 0 {
						t.Errorf("%s on %s at budget %d: billed no test cases", name, pkg, budget)
					}
					if eventBudgeted[name] && out.Stats.TestCases != budget {
						t.Errorf("%s on %s: billed %d test cases for %d events", name, pkg, out.Stats.TestCases, budget)
					}
					if out.Stats.TestCases > budget {
						t.Errorf("%s on %s: billed %d test cases over budget %d", name, pkg, out.Stats.TestCases, budget)
					}
					if len(out.Curve) == 0 {
						t.Errorf("%s on %s at budget %d: sampled no coverage curve", name, pkg, budget)
					}
				}
			}
		})
	}
}

// TestStrategySeedDeterminism pins satellite 1: two runs of each randomized
// strategy at the same seed produce identical outcomes, and a different seed
// is allowed to (and for monkey/biased does somewhere in the corpus) change
// the event stream without breaking determinism of either run.
func TestStrategySeedDeterminism(t *testing.T) {
	exs := corpusExtractions(t)
	demo := exs["com.demo.app"]
	if demo == nil {
		t.Fatalf("demo app missing from corpus extractions: %v", session.SortedKeys(exs))
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) *session.Outcome {
				// Fresh extraction state is shared safely: strategies clone
				// or only read it. The observer keeps the transcript.
				out, err := Run(name, demo, Options{Budget: 150, Seed: seed, Curve: true,
					Observer: &session.TraceBuffer{}})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return out
			}
			a, b := run(7), run(7)
			if len(a.Transcript) == 0 {
				t.Fatalf("%s: a traced run kept no transcript", name)
			}
			if !reflect.DeepEqual(a.VisitedActivities, b.VisitedActivities) ||
				!reflect.DeepEqual(a.Transcript, b.Transcript) ||
				a.Stats != b.Stats ||
				!reflect.DeepEqual(a.Curve, b.Curve) {
				t.Errorf("%s: two runs at seed 7 diverged", name)
			}
		})
	}
}

// TestParseList validates the -compare flag parser.
func TestParseList(t *testing.T) {
	got, err := ParseList("explorer, monkey,biased")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"explorer", "monkey", "biased"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseList = %v, want %v", got, want)
	}
	if _, err := ParseList("explorer,bogus"); err == nil {
		t.Error("ParseList accepted unknown strategy")
	}
	if _, err := ParseList(" , "); err == nil {
		t.Error("ParseList accepted empty list")
	}
}

// TestTraceLibraryAdaptation pins that the corpus library actually transfers
// traces: for the demo app, the trace strategy must get at least one adapted
// multi-op route from similar corpus apps.
func TestTraceLibraryAdaptation(t *testing.T) {
	exs := corpusExtractions(t)
	lib, err := CorpusLibrary("com.demo.app")
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Apps()) == 0 || lib.Routes() == 0 {
		t.Fatalf("empty corpus library: apps=%d routes=%d", len(lib.Apps()), lib.Routes())
	}
	tr := NewTraceReuse(exs["com.demo.app"], Options{Library: lib})
	out, err := session.Drive(exs["com.demo.app"].App, tr, session.Harness{Budget: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.VisitedActivities) == 0 {
		t.Error("trace strategy with corpus library reached nothing")
	}
}

// TestStrategyObserverIsPassive runs every registered strategy on the demo
// and Table I apps once untraced and once with a trace buffer: the untraced
// run keeps no transcript, and everything else it yields — counters, curve,
// visited sets, crash reports and collector usages — equals the traced
// run's. An engine that emits a counted event only while tracing (an input
// fill, a reflection attempt) fails here.
func TestStrategyObserverIsPassive(t *testing.T) {
	exs := corpusExtractions(t)
	lib, err := CorpusLibrary("")
	if err != nil {
		t.Fatalf("corpus library: %v", err)
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for _, pkg := range session.SortedKeys(exs) {
				run := func(obs session.Observer) *session.Outcome {
					out, err := Run(name, exs[pkg], Options{Budget: 300, Seed: 7, Curve: true,
						Library: lib, Observer: obs})
					if err != nil {
						t.Fatalf("%s on %s: %v", name, pkg, err)
					}
					return out
				}
				plain, traced := run(nil), run(&session.TraceBuffer{})
				if plain.Transcript != nil {
					t.Errorf("%s on %s: an untraced run kept %d transcript lines", name, pkg, len(plain.Transcript))
				}
				if len(traced.Transcript) == 0 {
					t.Errorf("%s on %s: a traced run kept no transcript", name, pkg)
				}
				if plain.Stats != traced.Stats {
					t.Errorf("%s on %s: stats differ with an observer attached: %+v vs %+v", name, pkg, plain.Stats, traced.Stats)
				}
				for what, pair := range map[string][2]any{
					"curve":              {plain.Curve, traced.Curve},
					"visited activities": {plain.VisitedActivities, traced.VisitedActivities},
					"visited fragments":  {plain.VisitedFragments, traced.VisitedFragments},
					"crash reports":      {plain.CrashReports, traced.CrashReports},
					"collector usages":   {plain.Collector.Usages(), traced.Collector.Usages()},
				} {
					if !reflect.DeepEqual(pair[0], pair[1]) {
						t.Errorf("%s on %s: %s differ with an observer attached", name, pkg, what)
					}
				}
			}
		})
	}
}
