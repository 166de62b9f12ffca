package session_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
)

// openStore opens a fresh artifact store rooted in the test's temp dir.
func openStore(t *testing.T) *artifact.Store {
	t.Helper()
	st, err := artifact.OpenStore(t.TempDir())
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return st
}

// snapshotFiles lists the persisted snapshot entries under a store.
func snapshotFiles(t *testing.T, st *artifact.Store) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(st.Dir(), "snapshot", "*", "*.art"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSnapshotPersistenceAcrossRestart pins the tentpole's durability claim:
// snapshots persisted through an attached store survive a "process restart" —
// a brand-new memo on the same store, serving a fresh build of the same app —
// and the warm run resumes without re-interpreting a single memoized prefix.
func TestSnapshotPersistenceAcrossRestart(t *testing.T) {
	st := openStore(t)
	route := launchScript().Append("tab", robotium.Click(corpus.TabButtonRef("Main", "Recent")))

	cold, err := corpus.BuildApp(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	m1 := session.NewSnapshotMemo(0)
	m1.AttachStore(st)
	s1 := session.New(cold, session.Options{AutoDismiss: true, Snapshots: m1})
	if _, res, ok := s1.RunScript(route, session.PurposeReplay); !ok || res.Err != nil {
		t.Fatalf("cold run: ok=%v err=%v", ok, res.Err)
	}
	if err := m1.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, _, writes := m1.DiskStats(); writes == 0 {
		t.Fatal("cold run persisted nothing")
	}
	if len(snapshotFiles(t, st)) == 0 {
		t.Fatal("no snapshot entries on disk after the cold run")
	}

	// "Restart": new memo, new app build, same store.
	warm, err := corpus.BuildApp(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	m2 := session.NewSnapshotMemo(0)
	m2.AttachStore(st)
	s2 := session.New(warm, session.Options{AutoDismiss: true, Snapshots: m2})
	_, res, ok := s2.RunScript(route, session.PurposeReplay)
	if !ok || res.Err != nil {
		t.Fatalf("warm run: ok=%v err=%v", ok, res.Err)
	}
	stats := s2.Stats()
	if stats.SnapshotHits != 1 || stats.StepsSaved == 0 {
		t.Errorf("warm run did not resume from disk: %+v", stats)
	}
	if hits, misses, _ := m2.DiskStats(); hits == 0 {
		t.Errorf("disk stats show no read-through hit: hits=%d misses=%d", hits, misses)
	}
	// The restored route must land exactly where the cold one did.
	coldEnd, warmEnd := s1.Stats(), stats
	if coldEnd.Steps != warmEnd.Steps || coldEnd.Crashes != warmEnd.Crashes {
		t.Errorf("warm counters diverged: cold %+v, warm %+v", coldEnd, warmEnd)
	}
}

// TestSnapshotPersistenceCorruption injects corruption into every persisted
// snapshot entry — truncating the payload — and requires the warm run to
// degrade to a silent miss: no error, full re-execution with identical
// counters, and a repairing re-persist of the entries.
func TestSnapshotPersistenceCorruption(t *testing.T) {
	st := openStore(t)
	route := launchScript().Append("nav", robotium.Click(corpus.NavButtonRef("Main", "Detail")))

	app, err := corpus.BuildApp(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	m1 := session.NewSnapshotMemo(0)
	m1.AttachStore(st)
	s1 := session.New(app, session.Options{AutoDismiss: true, Snapshots: m1})
	if _, res, ok := s1.RunScript(route, session.PurposeReplay); !ok || res.Err != nil {
		t.Fatalf("seed run: ok=%v err=%v", ok, res.Err)
	}
	if err := m1.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	want := s1.Stats()

	files := snapshotFiles(t, st)
	if len(files) == 0 {
		t.Fatal("seed run persisted nothing")
	}
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(f, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}

	fresh, err := corpus.BuildApp(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	m2 := session.NewSnapshotMemo(0)
	m2.AttachStore(st)
	s2 := session.New(fresh, session.Options{AutoDismiss: true, Snapshots: m2})
	_, res, ok := s2.RunScript(route, session.PurposeReplay)
	if !ok || res.Err != nil {
		t.Fatalf("run over corrupted store errored instead of missing silently: ok=%v err=%v", ok, res.Err)
	}
	stats := s2.Stats()
	if stats.SnapshotHits != 0 {
		t.Errorf("corrupted entries served a hit: %+v", stats)
	}
	if err := m2.Flush(); err != nil {
		t.Fatalf("repairing Flush: %v", err)
	}
	if hits, misses, writes := m2.DiskStats(); hits != 0 || misses == 0 || writes == 0 {
		t.Errorf("disk stats = hits %d misses %d writes %d, want 0 hits, misses and repairing writes",
			hits, misses, writes)
	}
	if stats.Steps != want.Steps || stats.Crashes != want.Crashes || stats.TestCases != want.TestCases {
		t.Errorf("re-execution diverged from the seed run: seed %+v, rerun %+v", want, stats)
	}

	// The rerun repaired the store: a third memo now reads clean entries.
	m3 := session.NewSnapshotMemo(0)
	m3.AttachStore(st)
	if snap, n, _ := m3.LongestPrefix(fresh, true, route.Ops); snap == nil || n != len(route.Ops) {
		t.Errorf("repaired store still misses: n=%d", n)
	}
}

// TestMemoStress holds a tiny persistent memo to the memo-less run: an
// explorer over a capacity-4 memo with a store attached (constant eviction
// churn, pack adds and promotions on every full route) must produce
// byte-identical results to the run with no memo at all.
func TestMemoStress(t *testing.T) {
	pkg := "com.adobe.reader"
	run := func(memo *session.SnapshotMemo) (string, session.Stats) {
		app, err := corpus.BuildApp(parityApp(t, pkg))
		if err != nil {
			t.Fatal(err)
		}
		cfg := explorer.DefaultConfig()
		cfg.MaxTestCases = 4000
		cfg.Snapshots = memo
		res, err := explorer.Explore(app, cfg)
		if err != nil {
			t.Fatalf("explore: %v", err)
		}
		return renderExplorer(res), res.Stats
	}

	plain, plainStats := run(nil)
	memo := session.NewSnapshotMemo(4)
	memo.AttachStore(openStore(t))
	memoized, memoStats := run(memo)
	if plain != memoized {
		t.Errorf("memoized run diverged from the memo-less run\n%s", firstDiff(memoized, plain))
	}
	if memoStats.Evictions == 0 {
		t.Error("no evictions under a capacity-4 memo; stress test is vacuous")
	}
	// Decision-relevant counters must match exactly; only the cache-side
	// columns (hits, saved steps, evictions, pinned bytes) may differ, since
	// restored snapshots change where work is skipped, never what it computes.
	a, b := plainStats, memoStats
	a.SnapshotHits, a.SnapshotRestores, a.StepsSaved, a.Evictions, a.BytesPinned = 0, 0, 0, 0, 0
	b.SnapshotHits, b.SnapshotRestores, b.StepsSaved, b.Evictions, b.BytesPinned = 0, 0, 0, 0, 0
	if a != b {
		t.Errorf("memoized counters diverged:\nplain %+v\nmemo  %+v", a, b)
	}
}

// TestSharedMemoChurn hammers one persistent memo from concurrent
// explorations, with capacity far below the working set. Run under -race
// this is the memo's interleaving stress: LRU eviction, pack adds and
// lookups from four sessions at once.
func TestSharedMemoChurn(t *testing.T) {
	st := openStore(t)
	memo := session.NewSnapshotMemo(2)
	memo.AttachStore(st)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			app, err := corpus.BuildApp(demoApp(t))
			if err != nil {
				t.Error(err)
				return
			}
			ecfg := explorer.DefaultConfig()
			ecfg.Snapshots = memo
			if _, err := explorer.Explore(app, ecfg); err != nil {
				t.Errorf("explore: %v", err)
			}
		}()
	}
	wg.Wait()

	if memo.Len() > 2 {
		t.Errorf("memo exceeded capacity under churn: %d", memo.Len())
	}
	if memo.Evictions() == 0 {
		t.Error("no evictions under a capacity-2 memo; churn test is vacuous")
	}
	if err := memo.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if _, _, writes := memo.DiskStats(); writes == 0 {
		t.Error("no persists under a shared store; stress test is vacuous")
	}
}
