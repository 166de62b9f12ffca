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

// recordingStore is a SnapshotStore that misses every load and keeps every
// saved pack, so a test can compare what two explorations would persist.
type recordingStore struct{ packs map[string][]byte }

func (s *recordingStore) LoadSnapshot(string) ([]byte, bool) { return nil, false }

func (s *recordingStore) SaveSnapshot(key string, payload []byte) error {
	s.packs[key] = append([]byte(nil), payload...)
	return nil
}

// TestPropertyDeterminism: the same app explored twice yields identical
// results — the whole pipeline is free of hidden nondeterminism. Each run
// explores over its own snapshot memo with a recording store attached, so
// the snapshot packs a run persists and every session counter, cache-side
// ones included, must be identical too.
func TestPropertyDeterminism(t *testing.T) {
	explore := func(spec *corpus.AppSpec) (*Result, map[string][]byte) {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := &recordingStore{packs: make(map[string][]byte)}
		memo := session.NewSnapshotMemo(0)
		memo.AttachStore(st)
		cfg := DefaultConfig()
		cfg.Snapshots = memo
		res, err := Explore(app, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := memo.Flush(); err != nil {
			t.Fatal(err)
		}
		return res, st.packs
	}
	for seed := int64(100); seed < 110; seed++ {
		spec := corpus.RandomSpec(fmt.Sprintf("com.det.s%d", seed), seed)
		r1, packs1 := explore(spec)
		r2, packs2 := explore(spec)
		if len(packs1) == 0 {
			t.Fatalf("seed %d: the exploration persisted no snapshot pack", seed)
		}
		if !reflect.DeepEqual(packs1, packs2) {
			t.Fatalf("seed %d: flushed snapshot packs diverge", seed)
		}
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
		if r1.TestCases != r2.TestCases || r1.Steps != r2.Steps {
			t.Fatalf("seed %d: work diverges: %d/%d vs %d/%d",
				seed, r1.TestCases, r1.Steps, r2.TestCases, r2.Steps)
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
