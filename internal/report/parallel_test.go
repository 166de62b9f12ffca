package report

import (
	"reflect"
	"testing"

	"fragdroid/internal/artifact"
)

// TestParallelEvaluationMatchesSequential checks that running the corpus on
// a pool of simulated devices yields byte-identical tables: every per-app
// exploration is deterministic and self-contained.
func TestParallelEvaluationMatchesSequential(t *testing.T) {
	seq := evaluation(t) // cached sequential run

	cfg := DefaultEvalConfig()
	cfg.Parallel = 4
	par, err := RunEvaluation(cfg)
	if err != nil {
		t.Fatalf("parallel RunEvaluation: %v", err)
	}

	st1 := seq.BuildTable1()
	st2 := par.BuildTable1()
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("parallel Table I differs from sequential")
	}
	m1 := seq.BuildTable2()
	m2 := par.BuildTable2()
	if !reflect.DeepEqual(m1.Apps, m2.Apps) || !reflect.DeepEqual(m1.APIs, m2.APIs) {
		t.Fatal("parallel Table II axes differ")
	}
	for _, api := range m1.APIs {
		for _, app := range m1.Apps {
			if m1.Cell(api, app) != m2.Cell(api, app) {
				t.Fatalf("cell (%s, %s) differs", api, app)
			}
		}
	}
	if m1.ComputeStats() != m2.ComputeStats() {
		t.Fatal("parallel stats differ")
	}
}

// TestRunMetricsParallelInvariant pins every -metrics column to the app
// alone: a 15-app evaluation renders byte-identical run metrics at
// Parallel 1 and at Parallel 4, twice.
func TestRunMetricsParallelInvariant(t *testing.T) {
	run := func(parallel int) *Evaluation {
		cfg := DefaultEvalConfig()
		cfg.Parallel = parallel
		ev, err := RunEvaluation(cfg)
		if err != nil {
			t.Fatalf("RunEvaluation parallel=%d: %v", parallel, err)
		}
		return ev
	}
	want := RenderRunMetrics(run(1))
	for i := 1; i <= 2; i++ {
		if got := RenderRunMetrics(run(4)); got != want {
			t.Errorf("parallel run %d: run metrics differ from the sequential run\ngot:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestParallelStudyMatchesSequential checks that the 217-app study produces
// the same StudyResult — including the ByCategory order — on a worker pool
// as it does serially. Both runs get fresh caches so neither is served warm
// results from the other.
func TestParallelStudyMatchesSequential(t *testing.T) {
	seq, err := RunStudyWith(StudyConfig{Seed: 1, Parallel: 1, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatalf("sequential RunStudyWith: %v", err)
	}
	par, err := RunStudyWith(StudyConfig{Seed: 1, Parallel: 8, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatalf("parallel RunStudyWith: %v", err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel study differs from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestEvaluationCacheZeroRebuilds checks that a second evaluation against a
// warmed cache performs no app builds and no static extractions, and that
// its headline numbers are bit-identical to the first (cold) run.
func TestEvaluationCacheZeroRebuilds(t *testing.T) {
	cache := artifact.NewCache()
	cfg := DefaultEvalConfig()
	cfg.Cache = cache

	ev1, err := RunEvaluation(cfg)
	if err != nil {
		t.Fatalf("cold RunEvaluation: %v", err)
	}
	s1 := cache.Stats()
	if s1.Builds == 0 || s1.Extractions == 0 {
		t.Fatalf("cold run did no work: %+v", s1)
	}

	ev2, err := RunEvaluation(cfg)
	if err != nil {
		t.Fatalf("warm RunEvaluation: %v", err)
	}
	s2 := cache.Stats()
	if s2.Builds != s1.Builds {
		t.Errorf("warm run rebuilt apps: %d -> %d builds", s1.Builds, s2.Builds)
	}
	if s2.Extractions != s1.Extractions {
		t.Errorf("warm run re-extracted: %d -> %d extractions", s1.Extractions, s2.Extractions)
	}
	if s2.Hits <= s1.Hits {
		t.Errorf("warm run recorded no cache hits: %+v -> %+v", s1, s2)
	}

	a1, f1, v1 := ev1.BuildTable1().Averages()
	a2, f2, v2 := ev2.BuildTable1().Averages()
	if a1 != a2 || f1 != f2 || v1 != v2 {
		t.Errorf("cached Table I averages differ: (%v %v %v) vs (%v %v %v)", a1, f1, v1, a2, f2, v2)
	}
	if ev1.BuildTable2().ComputeStats() != ev2.BuildTable2().ComputeStats() {
		t.Error("cached Table II stats differ")
	}
}
