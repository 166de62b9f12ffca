package report

import (
	"reflect"
	"testing"

	"fragdroid/internal/artifact"
	"fragdroid/internal/session"
)

// zeroCacheColumns blanks the cache-side counters that legitimately shift
// between a cold and a warm memo — hits, restores, saved steps, evictions,
// pinned bytes — so the remaining fields compare the decision-relevant work.
func zeroCacheColumns(s session.Stats) session.Stats {
	s.SnapshotHits, s.SnapshotRestores, s.StepsSaved = 0, 0, 0
	s.Evictions, s.BytesPinned = 0, 0
	return s
}

// requireEvalParity asserts two evaluations agree on every headline artifact:
// Table I rows and rendering, Table II matrix and aggregates, and all
// non-cache session counters.
func requireEvalParity(t *testing.T, label string, a, b *Evaluation) {
	t.Helper()
	t1a, t1b := a.BuildTable1(), b.BuildTable1()
	if !reflect.DeepEqual(t1a, t1b) {
		t.Errorf("%s: Table I differs", label)
	}
	if RenderTable1(t1a) != RenderTable1(t1b) {
		t.Errorf("%s: Table I rendering differs", label)
	}
	if RenderTable2(a.BuildTable2()) != RenderTable2(b.BuildTable2()) {
		t.Errorf("%s: Table II rendering differs", label)
	}
	sa, sb := a.BuildTable2().ComputeStats(), b.BuildTable2().ComputeStats()
	if sa != sb {
		t.Errorf("%s: Table II stats differ: %+v vs %+v", label, sa, sb)
	}
	if sb.DistinctAPIs != 46 || sb.TotalInvocations != 269 {
		t.Errorf("%s: aggregates = %d APIs / %d invocations, want 46/269",
			label, sb.DistinctAPIs, sb.TotalInvocations)
	}
	ma, mb := a.RunMetrics(), b.RunMetrics()
	if len(ma) != len(mb) {
		t.Fatalf("%s: run-metrics rows differ: %d vs %d", label, len(ma), len(mb))
	}
	for i := range ma {
		if ma[i].Package != mb[i].Package {
			t.Fatalf("%s: row %d package %s vs %s", label, i, ma[i].Package, mb[i].Package)
		}
		if x, y := zeroCacheColumns(ma[i].Stats), zeroCacheColumns(mb[i].Stats); x != y {
			t.Errorf("%s: %s counters diverged:\n a %+v\n b %+v", label, ma[i].Package, x, y)
		}
	}
}

// TestPersistentWarmParity is the durability gate: a memo-cold evaluation
// that persists snapshots, followed by a fresh-memo evaluation reading the
// same store (the "process restart"), must produce bit-identical headline
// metrics — and the warm run must actually serve prefixes from disk.
func TestPersistentWarmParity(t *testing.T) {
	dir := t.TempDir()
	cacheFor := func() *artifact.Cache {
		c, err := artifact.NewPersistentCache(dir)
		if err != nil {
			t.Fatalf("NewPersistentCache: %v", err)
		}
		return c
	}

	cold := DefaultEvalConfig()
	cold.Cache = cacheFor()
	cold.Snapshots = session.NewSnapshotMemo(0)
	cold.PersistSnapshots = true
	evalCold, err := RunEvaluation(cold)
	if err != nil {
		t.Fatalf("cold RunEvaluation: %v", err)
	}
	if _, _, writes := cold.Snapshots.DiskStats(); writes == 0 {
		t.Fatal("cold run persisted no snapshots")
	}

	warm := DefaultEvalConfig()
	warm.Cache = cacheFor()
	warm.Snapshots = session.NewSnapshotMemo(0)
	warm.PersistSnapshots = true
	evalWarm, err := RunEvaluation(warm)
	if err != nil {
		t.Fatalf("warm RunEvaluation: %v", err)
	}
	hits, _, _ := warm.Snapshots.DiskStats()
	if hits == 0 {
		t.Fatal("warm run never read a snapshot back from disk")
	}
	requireEvalParity(t, "persistent cold vs warm", evalCold, evalWarm)
}
