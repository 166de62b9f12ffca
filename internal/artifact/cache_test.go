package artifact

import (
	"errors"
	"sync"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
)

// TestSingleFlight hammers one spec from many goroutines and checks that the
// build ran exactly once and every caller got the same App pointer.
func TestSingleFlight(t *testing.T) {
	c := NewCache()
	spec := corpus.DemoSpec()

	const callers = 32
	apps := make([]*apk.App, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			app, err := c.App(spec)
			if err != nil {
				t.Errorf("App: %v", err)
				return
			}
			apps[i] = app
		}(i)
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if apps[i] != apps[0] {
			t.Fatalf("caller %d got a different App pointer", i)
		}
	}
	st := c.Stats()
	if st.Builds != 1 {
		t.Errorf("Builds = %d, want 1", st.Builds)
	}
	if st.Misses != 1 {
		t.Errorf("Misses = %d, want 1", st.Misses)
	}
	if st.Hits != callers-1 {
		t.Errorf("Hits = %d, want %d", st.Hits, callers-1)
	}
}

// TestExtractionSharesApp checks that Extraction reuses the memoized App
// build rather than building again.
func TestExtractionSharesApp(t *testing.T) {
	c := NewCache()
	spec := corpus.DemoSpec()
	if _, err := c.App(spec); err != nil {
		t.Fatal(err)
	}
	ex, err := c.Extraction(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ex == nil {
		t.Fatal("nil extraction")
	}
	st := c.Stats()
	if st.Builds != 1 {
		t.Errorf("Builds = %d, want 1 (Extraction must reuse the built app)", st.Builds)
	}
	if st.Extractions != 1 {
		t.Errorf("Extractions = %d, want 1", st.Extractions)
	}
	ex2, err := c.Extraction(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ex2 != ex {
		t.Error("second Extraction returned a different pointer")
	}
	if st := c.Stats(); st.Extractions != 1 {
		t.Errorf("Extractions after warm lookup = %d, want 1", st.Extractions)
	}
}

// TestKeyDistinguishesSpecs checks that keys are content-based: equal specs
// share a key, differing specs do not.
func TestKeyDistinguishesSpecs(t *testing.T) {
	a := corpus.DemoSpec()
	b := corpus.DemoSpec()
	if Key(a) != Key(b) {
		t.Error("identical specs produced different keys")
	}
	b.Downloads = "something else"
	if Key(a) == Key(b) {
		t.Error("differing specs produced the same key")
	}
}

// TestPackedSpecYieldsErrPacked checks that the memoized error path keeps
// the apk.ErrPacked sentinel recognizable.
func TestPackedSpecYieldsErrPacked(t *testing.T) {
	c := NewCache()
	spec := corpus.DemoSpec()
	spec.Packed = true
	for i := 0; i < 2; i++ {
		if _, err := c.App(spec); !errors.Is(err, apk.ErrPacked) {
			t.Fatalf("call %d: err = %v, want apk.ErrPacked", i, err)
		}
		if _, err := c.Extraction(spec); !errors.Is(err, apk.ErrPacked) {
			t.Fatalf("call %d: Extraction err = %v, want apk.ErrPacked", i, err)
		}
	}
}
