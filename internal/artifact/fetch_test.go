package artifact

import (
	"errors"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/statics"
)

// TestFetchAllocatesLikeBuildApp pins the fetch a corpus fold makes on a
// cache with no store: one FetchApp of a seed-1 family member allocates
// exactly what corpus.BuildApp allocates, so it computes no Key and keeps
// no entry. It counts each build, and no memo hit or miss. It is skipped
// under the race detector, whose instrumentation moves the count.
func TestFetchAllocatesLikeBuildApp(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	spec := corpus.NewFamily(1, 1).At(0)
	if spec.Packed {
		t.Fatal("family member 0 of seed 1 is packed; pick a built one")
	}
	const runs = 20
	build := testing.AllocsPerRun(runs, func() {
		if _, err := corpus.BuildApp(spec); err != nil {
			t.Fatal(err)
		}
	})
	c := NewCache()
	fetch := testing.AllocsPerRun(runs, func() {
		if _, err := c.FetchApp(spec); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BuildApp allocates %.0f objects/op, FetchApp %.0f", build, fetch)
	if fetch != build {
		t.Errorf("FetchApp without a store allocates %.0f objects/op, BuildApp %.0f: the fetch must add nothing", fetch, build)
	}
	// AllocsPerRun calls its function once more to warm up.
	if st := c.Stats(); st != (Stats{Builds: runs + 1}) {
		t.Errorf("stats after %d fetches: %+v, want only %d builds", runs+1, st, runs+1)
	}
	if live := c.Live(); live != 0 {
		t.Errorf("the memo holds %d entries after fetches, want 0", live)
	}
}

// TestFetchReadsAndWritesTheStore pins that a fetch takes the memo's store
// path: a cold FetchExtraction builds, extracts and writes both entries, a
// second fetch reads both back and computes nothing, and the memo of a
// fresh cache on the same store reads what the fetches wrote. Fetches count
// builds, extractions and disk traffic, no memo hit or miss, and keep
// nothing in memory. A packed spec fetches as apk.ErrPacked, from the store
// too.
func TestFetchReadsAndWritesTheStore(t *testing.T) {
	dir := t.TempDir()
	c, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := corpus.DemoSpec()
	built, err := corpus.BuildApp(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := statics.Extract(built)
	if err != nil {
		t.Fatal(err)
	}
	for run, wantStats := range []Stats{
		{Builds: 1, Extractions: 1, DiskMisses: 2, DiskWrites: 2},
		{Builds: 1, Extractions: 1, DiskMisses: 2, DiskWrites: 2, DiskHits: 2},
	} {
		ex, err := c.FetchExtraction(spec)
		if err != nil {
			t.Fatal(err)
		}
		requireSameArtifacts(t, ex, built, want)
		if st := c.Stats(); st != wantStats {
			t.Errorf("fetch %d: stats %+v, want %+v", run, st, wantStats)
		}
	}
	if _, err := c.FetchApp(spec); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskHits != 3 || st.Builds != 1 {
		t.Errorf("FetchApp on a filled store: %+v, want a third disk hit and no build", st)
	}
	if live := c.Live(); live != 0 {
		t.Errorf("the memo holds %d entries after fetches, want 0", live)
	}

	memo, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memo.Extraction(spec); err != nil {
		t.Fatal(err)
	}
	if st := memo.Stats(); st.Builds != 0 || st.Extractions != 0 || st.DiskHits != 2 {
		t.Errorf("memo after fetches: %+v, want both artifacts read from the store", st)
	}

	packed := corpus.DemoSpec()
	packed.Packed = true
	for run := 0; run < 2; run++ {
		if _, err := c.FetchExtraction(packed); !errors.Is(err, apk.ErrPacked) {
			t.Fatalf("fetch %d of a packed spec: err %v, want apk.ErrPacked", run, err)
		}
	}
	if st := c.Stats(); st.Builds != 2 || st.DiskHits != 4 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("packed fetches: %+v, want one build, then a store hit", st)
	}
}
