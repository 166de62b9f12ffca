package session_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/statics"
)

// TestExploredAppsAreCollected pins that nothing in the session runtime or
// the explorer keeps an app alive after its run: apps explored in full and
// then dropped must be garbage collected.
func TestExploredAppsAreCollected(t *testing.T) {
	const n = 50
	var collected atomic.Int32
	explore := func() {
		app, err := corpus.BuildApp(corpus.DemoSpec())
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(app, func(*apk.App) { collected.Add(1) })
		ex, err := statics.Extract(app)
		if err != nil {
			t.Fatal(err)
		}
		res, err := explorer.ExploreExtracted(ex, explorer.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Visits) == 0 {
			t.Fatal("the exploration visited nothing")
		}
	}
	for i := 0; i < n; i++ {
		explore()
	}
	// Finalizers run on their own goroutine after the collection that
	// finds the app unreachable; poll until all have run or time runs out.
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < n && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != n {
		t.Fatalf("%d of %d explored apps were collected; something still references them", got, n)
	}
}
