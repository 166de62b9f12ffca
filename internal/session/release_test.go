package session_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/session"
)

// TestExploredAppsAreCollected is the regression test for the
// process-global fingerprint cache that kept every app the snapshot memo
// had seen alive until ReleaseApp: apps explored through a memo and then
// dropped, without ReleaseApp, must be garbage collected.
func TestExploredAppsAreCollected(t *testing.T) {
	const n = 50
	var collected atomic.Int32
	explore := func() {
		app, err := corpus.BuildApp(corpus.DemoSpec())
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(app, func(*apk.App) { collected.Add(1) })
		s := session.New(app, session.Options{AutoDismiss: true, Snapshots: session.NewSnapshotMemo(0)})
		if _, res, ok := s.RunScript(launchScript(), session.PurposeLaunch); !ok || res.Err != nil {
			t.Fatalf("launch: ok=%v err=%v", ok, res.Err)
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
