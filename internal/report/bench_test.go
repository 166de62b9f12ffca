package report

import (
	"fmt"
	"os"
	"testing"

	"fragdroid/internal/artifact"
)

// The cold/warm pair below measures the -cache workflow end to end on the
// full 217-app study: cold is the first run against an empty store directory
// (build + encode + write-through), warm is every later run against the same
// directory (load + decode, zero builds). The ratio between the two is the
// speedup a user sees on their second fragstudy invocation.

// studyWith runs the full §VII-A study through the given persistent cache
// and fails the benchmark on any error.
func studyWith(b *testing.B, cache *artifact.Cache) {
	b.Helper()
	if _, err := RunStudyWith(StudyConfig{Seed: 1, Cache: cache}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStudyColdCache: every iteration starts from an empty store
// directory, so it pays the full build plus the write-through encoding.
func BenchmarkStudyColdCache(b *testing.B) {
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := fmt.Sprintf("%s/run%d", root, i)
		cache, err := artifact.NewPersistentCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		studyWith(b, cache)
		b.StopTimer()
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// BenchmarkStudyWarmCache: iterations share one pre-populated store
// directory; each uses a fresh Cache instance, so all artifacts come off
// disk. A final stats check proves no iteration quietly rebuilt anything.
func BenchmarkStudyWarmCache(b *testing.B) {
	dir := b.TempDir()
	seed, err := artifact.NewPersistentCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	studyWith(b, seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache, err := artifact.NewPersistentCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		studyWith(b, cache)
	}
	b.StopTimer()

	check, err := artifact.NewPersistentCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	res, err := RunStudyWith(StudyConfig{Seed: 1, Cache: check})
	if err != nil {
		b.Fatal(err)
	}
	if st := check.Stats(); st.Builds != 0 || st.DiskMisses != 0 {
		b.Fatalf("warm run was not served from disk: %+v", st)
	}
	// §VII-A headline: the share of analyzable study apps using fragments.
	b.ReportMetric(res.FragmentSharePct(), "fragment_share_pct")
}

// BenchmarkEvaluationWarmCache tracks the exploration-dominated Table I run
// against a warm store: the interesting number here is how little of the
// wall-clock the artifact layer costs once builds are off the critical path.
func BenchmarkEvaluationWarmCache(b *testing.B) {
	dir := b.TempDir()
	seed, err := artifact.NewPersistentCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultEvalConfig()
	cfg.Cache = seed
	if _, err := RunEvaluation(cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cache, err := artifact.NewPersistentCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		runCfg := DefaultEvalConfig()
		runCfg.Cache = cache
		b.StartTimer()
		if _, err := RunEvaluation(runCfg); err != nil {
			b.Fatal(err)
		}
	}
}
