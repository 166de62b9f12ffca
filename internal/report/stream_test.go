package report

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
)

// TestRunStreamedFoldsInOrderWithinWindow drives the scheduler with
// jittered work and checks its whole contract at once: every item is folded
// exactly once, strictly in index order; at most parallel work calls run at
// once, and at least two do; the in-flight high-water mark never exceeds the
// window; and a ring slot indexed i%window is never written by a new item
// before the previous occupant was folded.
func TestRunStreamedFoldsInOrderWithinWindow(t *testing.T) {
	const n, parallel, window = 100, 3, 7
	rng := rand.New(rand.NewSource(42))
	delays := make([]time.Duration, n)
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(300)) * time.Microsecond
	}
	slots := make([]int64, window) // current occupant per ring slot
	for i := range slots {
		slots[i] = -1
	}
	var running, maxRunning atomic.Int64
	var folded []int
	maxLive := forEach(n, parallel, window, func(i int) {
		if !atomic.CompareAndSwapInt64(&slots[i%window], -1, int64(i)) {
			t.Errorf("slot %d still occupied by %d when item %d arrived", i%window, atomic.LoadInt64(&slots[i%window]), i)
		}
		r := running.Add(1)
		for m := maxRunning.Load(); r > m && !maxRunning.CompareAndSwap(m, r); m = maxRunning.Load() {
		}
		time.Sleep(delays[i])
		running.Add(-1)
	}, func(i int) {
		folded = append(folded, i)
		atomic.StoreInt64(&slots[i%window], -1)
	})
	if len(folded) != n {
		t.Fatalf("folded %d items, want %d", len(folded), n)
	}
	for i, v := range folded {
		if v != i {
			t.Fatalf("fold out of order at %d: got item %d", i, v)
		}
	}
	if m := maxRunning.Load(); m < 2 || m > parallel {
		t.Errorf("%d work calls ran at once, want in [2, %d]", m, parallel)
	}
	if maxLive < 2 || maxLive > window {
		t.Errorf("maxLive=%d, want in [2, %d]", maxLive, window)
	}
}

// TestRunStreamedSerial pins the sequential fallback: with window 1 or one
// worker, each item is worked and then folded on the calling goroutine
// before the next starts, with at most one in flight.
func TestRunStreamedSerial(t *testing.T) {
	for _, c := range []struct{ parallel, window int }{{8, 1}, {1, 8}} {
		var order []string
		live := forEach(3, c.parallel, c.window,
			func(i int) { order = append(order, fmt.Sprint("w", i)) },
			func(i int) { order = append(order, fmt.Sprint("f", i)) })
		if live != 1 {
			t.Errorf("%+v: serial maxLive=%d, want 1", c, live)
		}
		if want := []string{"w0", "f0", "w1", "f1", "w2", "f2"}; !reflect.DeepEqual(order, want) {
			t.Errorf("%+v: serial order %v, want %v", c, order, want)
		}
	}
}

// TestStreamedStudyParity is the streaming fold's correctness pin:
// RunStudyStreamed must reproduce RunStudyWith bit for bit on the 217-app
// study — same totals, same packed/fragment partition, same sorted
// per-category breakdown — under a parallel, small-window schedule that
// forces heavy out-of-order completion.
func TestStreamedStudyParity(t *testing.T) {
	positional, err := RunStudyWith(StudyConfig{Seed: 1, Parallel: 8, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	streamed, st, err := RunStudyStreamed(StudyConfig{
		Seed: 1, Parallel: 8, Window: 5, Stream: true, Cache: artifact.NewCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(positional, streamed) {
		t.Errorf("streamed study differs from positional:\npositional %+v\nstreamed   %+v", positional, streamed)
	}
	if RenderStudy(positional) != RenderStudy(streamed) {
		t.Error("rendered study reports differ")
	}
	if st.MaxLive > st.Window {
		t.Errorf("max in-flight %d exceeded window %d", st.MaxLive, st.Window)
	}
	// The headline number the paper reports; drift here means the corpus or
	// the fold changed, not just scheduling.
	if pct := streamed.FragmentSharePct(); pct < 91.2 || pct > 91.4 {
		t.Errorf("fragment share %.2f%%, want ≈91.30%%", pct)
	}
}

// TestStreamedStudyViaRunStudyWith pins that the deprecated Stream field,
// with its own window, changes nothing RunStudyWith returns.
func TestStreamedStudyViaRunStudyWith(t *testing.T) {
	plain, err := RunStudyWith(StudyConfig{Seed: 3, Parallel: 4, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	viaStream, err := RunStudyWith(StudyConfig{Seed: 3, Parallel: 4, Stream: true, Window: 6, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, viaStream) {
		t.Error("Stream=true via RunStudyWith diverged from positional run")
	}
}

// TestStreamedLintParity extends the parity pin to the lint fold.
func TestStreamedLintParity(t *testing.T) {
	positional, err := RunLintStudy(StudyConfig{Seed: 1, Parallel: 6, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunLintStudy(StudyConfig{Seed: 1, Parallel: 6, Stream: true, Window: 4, Cache: artifact.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(positional, streamed) {
		t.Errorf("streamed lint study differs:\npositional %+v\nstreamed   %+v", positional, streamed)
	}
}

// TestStreamedFamilyBoundedLiveSet pins the release rule on a family
// corpus, for the study and for the lint sweep. With or without Stream the
// run fetches every app through the cache and never memoizes one: the
// cache's memo holds no entry during the run or after it, and counts no
// lookup, while the run builds every app. The results agree either way.
func TestStreamedFamilyBoundedLiveSet(t *testing.T) {
	fam := corpus.NewFamily(300, 2)
	for _, c := range []struct {
		name string
		run  func(StudyConfig) (any, error)
	}{
		{"study", func(cfg StudyConfig) (any, error) {
			res, st, err := RunStudyStreamed(cfg)
			if err == nil && (res.Total != 300 || res.Analyzable == 0 || st.MaxLive > st.Window) {
				t.Errorf("streamed family study off: %+v, %+v", res, st)
			}
			return res, err
		}},
		{"lint", func(cfg StudyConfig) (any, error) { return RunLintStudy(cfg) }},
	} {
		withStream := &liveProbe{SpecSource: fam, cache: artifact.NewCache()}
		without := &liveProbe{SpecSource: fam, cache: artifact.NewCache()}
		streamed, err := c.run(StudyConfig{Source: withStream, Parallel: 8, Window: 6, Stream: true, Cache: withStream.cache})
		if err != nil {
			t.Fatal(err)
		}
		positional, err := c.run(StudyConfig{Source: without, Parallel: 8, Cache: without.cache})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			mode  string
			probe *liveProbe
		}{{"with Stream", withStream}, {"without Stream", without}} {
			st := r.probe.cache.Stats()
			if st.Builds == 0 {
				t.Errorf("%s %s: the run built no app through the cache", c.name, r.mode)
			}
			if st.Hits != 0 || st.Misses != 0 {
				t.Errorf("%s %s: the run looked apps up in the memo: %+v", c.name, r.mode, st)
			}
			if r.probe.peak != 0 {
				t.Errorf("%s %s: the memo held %d entries during the run, want 0", c.name, r.mode, r.probe.peak)
			}
			if live := r.probe.cache.Live(); live != 0 {
				t.Errorf("%s %s: the memo holds %d entries after the run, want 0", c.name, r.mode, live)
			}
		}
		if !reflect.DeepEqual(positional, streamed) {
			t.Errorf("%s: family run with Stream diverged from the run without it", c.name)
		}
	}
}

// TestStudyRunsReleaseEveryApp pins the release rule on the 217-app study,
// for the study and for the lint sweep, each on an in-memory cache and then
// twice on a store-backed one. Every run fetches its apps without
// memoizing them: the cache's memo holds no entry during the run or after
// it. The store keeps its copies: the second store-backed run builds
// nothing and reads every artifact from disk once.
func TestStudyRunsReleaseEveryApp(t *testing.T) {
	const window = 5
	for _, c := range []struct {
		name  string
		reads uint64 // store reads a warm run makes
		run   func(StudyConfig) (any, error)
	}{
		{"study", corpus.StudySize, func(cfg StudyConfig) (any, error) {
			res, st, err := RunStudyStreamed(cfg)
			if err == nil && (st.Window != window || st.MaxLive > st.Window) {
				t.Errorf("study: max in-flight %d, window %d, want window %d", st.MaxLive, st.Window, window)
			}
			return res, err
		}},
		// A warm lint run reads each app's build and the 207 analyzable
		// apps' extractions; the 10 packed apps have none.
		{"lint", corpus.StudySize + 207, func(cfg StudyConfig) (any, error) { return RunLintStudy(cfg) }},
	} {
		stored, err := artifact.NewPersistentCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var first any
		for run, cache := range []*artifact.Cache{artifact.NewCache(), stored, stored} {
			src := &liveProbe{SpecSource: corpus.SliceSource(corpus.StudySpecs(1)), cache: cache}
			before := cache.Stats()
			res, err := c.run(StudyConfig{Source: src, Parallel: 4, Window: window, Cache: cache})
			if err != nil {
				t.Fatal(err)
			}
			if live := cache.Live(); live != 0 {
				t.Errorf("%s run %d: the memo holds %d entries after the run, want 0", c.name, run, live)
			}
			if src.peak != 0 {
				t.Errorf("%s run %d: the memo held %d entries during the run, want 0", c.name, run, src.peak)
			}
			if st := cache.Stats(); st.Hits != 0 || st.Misses != 0 {
				t.Errorf("%s run %d: the run looked apps up in the memo: %+v", c.name, run, st)
			}
			if run == 0 {
				first = res
			} else if !reflect.DeepEqual(res, first) {
				t.Errorf("%s run %d differs from the in-memory run", c.name, run)
			}
			if run < 2 {
				continue
			}
			st := cache.Stats()
			if st.Builds != before.Builds || st.Extractions != before.Extractions ||
				st.DiskMisses != before.DiskMisses || st.DiskHits-before.DiskHits != c.reads {
				t.Errorf("%s: second store-backed run built or missed: before %+v, after %+v, want %d disk hits",
					c.name, before, st, c.reads)
			}
		}
	}
}

// liveProbe is a spec source that samples its cache's memo entries each
// time a worker takes a spec, and keeps the peak.
type liveProbe struct {
	corpus.SpecSource
	cache *artifact.Cache
	mu    sync.Mutex
	peak  int
}

func (p *liveProbe) At(i int) *corpus.AppSpec {
	p.mu.Lock()
	p.peak = max(p.peak, p.cache.Live())
	p.mu.Unlock()
	return p.SpecSource.At(i)
}

// TestStreamedFamilyBoundedHeap is the bounded-memory regression test: the
// sampled peak heap of a streamed family study must not scale with the
// corpus. A 10× larger corpus through the same window has to stay within a
// small factor of the smaller run's peak — under the positional fold it
// grows roughly linearly, which is exactly the regression this test exists
// to catch.
func TestStreamedFamilyBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-scale heap measurement")
	}
	for _, stream := range []bool{true, false} {
		peakAt := func(n int) uint64 {
			t.Helper()
			_, st, err := RunStudyStreamed(StudyConfig{
				Source: corpus.NewFamily(n, 2), Parallel: 8, Window: 8, Stream: stream, Cache: artifact.NewCache(),
			})
			if err != nil {
				t.Fatal(err)
			}
			return st.PeakHeapBytes
		}
		small := peakAt(150)
		large := peakAt(1500)
		// Floor the baseline: tiny corpora can finish before the runtime grows
		// the heap at all, and GC timing adds noise in both directions.
		floor := uint64(48 << 20)
		base := small
		if base < floor {
			base = floor
		}
		if large > 5*base/2 {
			t.Errorf("Stream=%v: peak heap grew with corpus size: %d apps -> %d bytes, %d apps -> %d bytes (limit %d)",
				stream, 150, small, 1500, large, 5*base/2)
		}
	}
}
