package report

import (
	"fmt"
	"math/rand"
	"reflect"
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

// TestStreamedStudyParity is the tentpole's correctness pin: the streaming
// fold must reproduce the positional fold bit for bit on the 217-app study —
// same totals, same packed/fragment partition, same sorted per-category
// breakdown — under a parallel, small-window schedule that forces heavy
// out-of-order completion.
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

// TestStreamedStudyViaRunStudyWith pins the config plumbing: StudyConfig
// with Stream set routes through the streaming path and returns the same
// result object shape.
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

// TestStreamedFamilyBoundedLiveSet pins the release discipline on a family
// corpus, for the study and for the lint sweep. With Stream the artifact
// cache holds zero live entries after the run: every app was evicted once it
// folded. Without it the cache keeps every entry the run created. The
// results agree either way.
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
		released, kept := artifact.NewCache(), artifact.NewCache()
		streamed, err := c.run(StudyConfig{Source: fam, Parallel: 8, Window: 6, Stream: true, Cache: released})
		if err != nil {
			t.Fatal(err)
		}
		positional, err := c.run(StudyConfig{Source: fam, Parallel: 8, Cache: kept})
		if err != nil {
			t.Fatal(err)
		}
		if live := released.Live(); live != 0 {
			t.Errorf("%s: cache holds %d live entries after a streamed run, want 0 (release leak)", c.name, live)
		}
		if live, created := kept.Live(), kept.Stats().Misses; created == 0 || uint64(live) != created {
			t.Errorf("%s: cache holds %d live entries without Stream, want all %d the run created", c.name, live, created)
		}
		if !reflect.DeepEqual(positional, streamed) {
			t.Errorf("%s: streamed family run diverged from the run without Stream", c.name)
		}
	}
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
	peakAt := func(n int) uint64 {
		t.Helper()
		_, st, err := RunStudyStreamed(StudyConfig{
			Source: corpus.NewFamily(n, 2), Parallel: 8, Window: 8, Stream: true, Cache: artifact.NewCache(),
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
		t.Errorf("peak heap grew with corpus size: %d apps -> %d bytes, %d apps -> %d bytes (limit %d)",
			150, small, 1500, large, 5*base/2)
	}
}
