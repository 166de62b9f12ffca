package explorer

import (
	"fmt"
	"reflect"
	"testing"

	"fragdroid/internal/aftm"
	"fragdroid/internal/corpus"
	"fragdroid/internal/session"
)

// Pipeline-wide properties over seeded random apps: every app the generator
// can produce must explore cleanly and respect the model invariants.
func TestPropertyRandomApps(t *testing.T) {
	const seeds = 40
	for seed := int64(0); seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			spec := corpus.RandomSpec(fmt.Sprintf("com.rand.s%d", seed), seed)
			app, err := corpus.BuildApp(spec)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := Explore(app, DefaultConfig())
			if err != nil {
				t.Fatalf("explore: %v", err)
			}

			// Visited ⊆ effective.
			effA := toSet(res.Extraction.EffectiveActivities)
			for _, a := range res.VisitedActivities() {
				if !effA[a] {
					t.Errorf("visited non-effective activity %s", a)
				}
			}
			effF := toSet(res.Extraction.EffectiveFragments)
			for _, f := range res.VisitedFragments() {
				if !effF[f] {
					t.Errorf("visited non-effective fragment %s", f)
				}
			}

			// The entry is always visited.
			entry, err := app.Manifest.EntryActivity()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := res.Visits[aftm.ActivityNode(entry)]; !ok {
				t.Errorf("entry %s not visited", entry)
			}

			// The evolved model contains at least the static edges.
			staticEdges := len(res.Extraction.Model.Edges())
			finalEdges := len(res.Model.Edges())
			if finalEdges < staticEdges {
				t.Errorf("final model lost edges: %d < %d", finalEdges, staticEdges)
			}

			// Every visited node is marked visited in the model.
			for n := range res.Visits {
				if !res.Model.Visited(n) {
					t.Errorf("visit of %s not marked in model", n)
				}
			}

			// Every first-arrival route replays to a state showing the node.
			for n, v := range res.Visits {
				d := newTestDevice(app)
				if err := runScriptOn(d, v.Route); err != nil {
					t.Errorf("route to %s fails: %v", n, err)
					continue
				}
				if err := verifyNodeOnScreen(d, res, n); err != nil {
					t.Errorf("route to %s lands wrong: %v", n, err)
				}
			}

			// FiVA accounting is internally consistent.
			fv, fs := res.FragmentsInVisitedActivities()
			if fv > fs || fv > len(res.VisitedFragments()) {
				t.Errorf("FiVA %d/%d inconsistent with %d visited fragments",
					fv, fs, len(res.VisitedFragments()))
			}
		})
	}
}

// TestPropertyDeterminism: the same app explored twice yields identical
// results — the whole pipeline is free of hidden nondeterminism. Every
// session counter, visit route and transcript line must match. The runs
// are traced, so that they keep their transcripts.
func TestPropertyDeterminism(t *testing.T) {
	explore := func(spec *corpus.AppSpec) *Result {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Observer = &session.TraceBuffer{}
		res, err := Explore(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for seed := int64(100); seed < 110; seed++ {
		spec := corpus.RandomSpec(fmt.Sprintf("com.det.s%d", seed), seed)
		r1 := explore(spec)
		r2 := explore(spec)
		if r1.Stats != r2.Stats {
			t.Fatalf("seed %d: session stats diverge:\n%+v\n%+v", seed, r1.Stats, r2.Stats)
		}
		if !reflect.DeepEqual(r1.VisitedActivities(), r2.VisitedActivities()) {
			t.Fatalf("seed %d: activities diverge: %v vs %v",
				seed, r1.VisitedActivities(), r2.VisitedActivities())
		}
		if !reflect.DeepEqual(r1.VisitedFragments(), r2.VisitedFragments()) {
			t.Fatalf("seed %d: fragments diverge", seed)
		}
		if !reflect.DeepEqual(r1.Visits, r2.Visits) {
			t.Fatalf("seed %d: visit routes diverge", seed)
		}
		if len(r1.Transcript) == 0 || !reflect.DeepEqual(r1.Transcript, r2.Transcript) {
			t.Fatalf("seed %d: transcripts diverge or are empty", seed)
		}
		if !reflect.DeepEqual(r1.Model.Edges(), r2.Model.Edges()) {
			t.Fatalf("seed %d: final models diverge", seed)
		}
	}
}

func toSet(s []string) map[string]bool {
	out := make(map[string]bool, len(s))
	for _, v := range s {
		out[v] = true
	}
	return out
}
