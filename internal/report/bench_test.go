package report

import (
	"fmt"
	"os"
	"testing"

	"fragdroid/internal/artifact"
	"fragdroid/internal/session"
)

// The cold/warm pair below measures the -cache workflow end to end on the
// full 217-app study: cold is the first run against an empty store directory
// (build + encode + write-through), warm is every later run against the same
// directory (load + decode, zero builds). The ratio between the two is the
// speedup a user sees on their second fragstudy invocation; CI asserts the
// warm path stays comfortably ahead.

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

// BenchmarkEvaluationSnapshots is BenchmarkEvaluationWarmCache with the
// device-snapshot memo enabled: each iteration runs the Table I evaluation
// with a fresh shared memo, so route prefixes restore instead of
// re-executing. The custom metrics report the memo's effect directly:
// hit_rate is the share of test cases resumed from a snapshot, and
// step_reduction the factor by which executed interpreter steps shrank
// (logical steps over executed steps) — the single-core acceptance number.
func BenchmarkEvaluationSnapshots(b *testing.B) {
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
	var last *Evaluation
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
		runCfg.Snapshots = session.NewSnapshotMemo(0)
		b.StartTimer()
		ev, err := RunEvaluation(runCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = ev
	}
	b.StopTimer()
	tot := last.TotalStats()
	if tot.SnapshotHits == 0 || tot.StepsSaved == 0 {
		b.Fatalf("snapshot memo was never hit: %+v", tot)
	}
	b.ReportMetric(float64(tot.SnapshotHits)/float64(tot.TestCases), "hit_rate")
	b.ReportMetric(float64(tot.Steps)/float64(tot.Steps-tot.StepsSaved), "step_reduction")
}

// BenchmarkEvaluationPersistentWarm is the tentpole's headline number: the
// Table I evaluation against a store already holding every full-route
// snapshot. Each iteration uses a fresh memo (as a new process would), so all
// resumed prefixes are served by disk read-through — the evaluation starts
// warm instead of warming itself up. The persistent_hit_rate metric is the
// share of test cases resumed from a snapshot; disk_hits counts payloads
// actually decoded off disk (zero would mean the bench regressed to the
// in-memory path).
func BenchmarkEvaluationPersistentWarm(b *testing.B) {
	dir := b.TempDir()
	seed, err := artifact.NewPersistentCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	scfg := DefaultEvalConfig()
	scfg.Cache = seed
	scfg.Snapshots = session.NewSnapshotMemo(0)
	scfg.PersistSnapshots = true
	if _, err := RunEvaluation(scfg); err != nil {
		b.Fatal(err)
	}
	var last *Evaluation
	var lastMemo *session.SnapshotMemo
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
		runCfg.Snapshots = session.NewSnapshotMemo(0)
		runCfg.PersistSnapshots = true
		lastMemo = runCfg.Snapshots
		b.StartTimer()
		ev, err := RunEvaluation(runCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = ev
	}
	b.StopTimer()
	tot := last.TotalStats()
	if tot.SnapshotHits == 0 || tot.StepsSaved == 0 {
		b.Fatalf("persistent snapshots were never hit: %+v", tot)
	}
	hits, _, _ := lastMemo.DiskStats()
	if hits == 0 {
		b.Fatal("no snapshot came off disk; the persistent path was not exercised")
	}
	b.ReportMetric(float64(tot.SnapshotHits)/float64(tot.TestCases), "hit_rate")
	b.ReportMetric(float64(hits), "disk_hits")
	// The headline metrics ride along in BENCH_PR6.json as proof the warm
	// path changed nothing the evaluation reports: coverage averages and the
	// Table II aggregates must match the memo-off numbers bit for bit.
	act, frag, _ := last.BuildTable1().Averages()
	st := last.BuildTable2().ComputeStats()
	b.ReportMetric(act, "activity_pct")
	b.ReportMetric(frag, "fragment_pct")
	b.ReportMetric(float64(st.DistinctAPIs), "apis")
	b.ReportMetric(float64(st.TotalInvocations), "invocations")
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
