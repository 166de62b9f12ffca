package report

import (
	"errors"
	"fmt"
	"sync"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
)

// Every corpus run is a loop over independent apps whose outcomes are folded
// in corpus order. forEach is the one scheduler behind all of them: a pool
// of workers runs each app's whole work (build, extract, then run or scan)
// and the caller folds the apps in index order.
//
// Determinism is unaffected by the schedule. A work call writes only its own
// item's state, fold walks the items in dataset order, and per-app errors
// are joined in that order, so every derived table is identical to a
// sequential run.

// defaultWindow is the in-flight bound every corpus run uses unless a study
// sets its own: twice the workers, so the in-order fold catching up never
// idles a worker, with a floor of 4 for near-serial runs.
func defaultWindow(parallel int) int {
	return max(2*parallel, 4)
}

// forEach runs work(i) for items 0..n-1 on min(parallel, window) worker
// goroutines and calls fold(i) on the calling goroutine, exactly once per
// item and strictly in index order.
//
// At most window items are in flight (admitted, not yet folded): item
// i+window is admitted only after fold(i) has returned. Callers may
// therefore keep item i's state in a ring slot indexed i%window; no two live
// items ever share a slot. A 10k-app corpus thus holds O(window) apps, not
// O(corpus).
//
// The return value is the high-water mark of in-flight items, which is at
// most window. With parallel <= 1 or window <= 1 the items run strictly
// sequentially on the calling goroutine.
func forEach(n, parallel, window int, work, fold func(i int)) (maxLive int) {
	if n <= 0 {
		return 0
	}
	if parallel <= 1 || window <= 1 {
		for i := 0; i < n; i++ {
			work(i)
			fold(i)
		}
		return 1
	}
	// Both channels hold at most the window's items, so neither send below
	// ever blocks: the caller admits only after a fold, and a worker reports
	// only an admitted item.
	jobs := make(chan int, window)
	done := make(chan int, window)
	var wg sync.WaitGroup
	for w := 0; w < min(parallel, window); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				work(i)
				done <- i
			}
		}()
	}
	admitted := min(window, n)
	for i := 0; i < admitted; i++ {
		jobs <- i
	}
	finished := make([]bool, window)
	for next := 0; next < n; {
		i := <-done
		finished[i%window] = true
		maxLive = max(maxLive, admitted-next)
		for next < n && finished[next%window] {
			finished[next%window] = false
			fold(next)
			next++
			if admitted < n {
				jobs <- admitted
				admitted++
			}
		}
	}
	close(jobs)
	wg.Wait()
	return maxLive
}

// foldCorpus is the study-shaped corpus run behind the fragment study and
// the lint study. It scans every app of cfg's corpus, cfg.Parallel apps at a
// time, and hands each outcome to add in dataset order. A packed app (its
// decompilation fails, as in the paper) reaches add with packed set and a
// zero outcome. scan fetches its app through the cache (FetchApp or
// FetchExtraction), which keeps nothing in memory, so an app lives only
// while its scan runs and the run holds O(window) apps however large the
// corpus; a store keeps its copy. It returns the in-flight high-water mark
// and every other per-app error, joined in dataset order.
func foldCorpus[T any](cfg StudyConfig, src corpus.SpecSource, what string,
	scan func(*corpus.AppSpec) (T, error), add func(pkg string, packed bool, out T)) (int, error) {
	window := cfg.window()
	slots := make([]corpusSlot[T], window)
	var errs []error
	maxLive := forEach(src.Len(), cfg.Parallel, window, func(i int) {
		s := &slots[i%window]
		s.spec = src.At(i)
		s.out, s.err = scan(s.spec)
	}, func(i int) {
		s := &slots[i%window]
		packed := errors.Is(s.err, apk.ErrPacked)
		if s.err != nil && !packed {
			errs = append(errs, fmt.Errorf("report: %s %s: %w", what, s.spec.Package, s.err))
		} else {
			add(s.spec.Package, packed, s.out)
		}
		*s = corpusSlot[T]{}
	})
	return maxLive, errors.Join(errs...)
}

// corpusSlot holds one in-flight app of a foldCorpus run.
type corpusSlot[T any] struct {
	spec *corpus.AppSpec
	out  T
	err  error
}
