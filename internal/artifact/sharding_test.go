package artifact

import (
	"fmt"
	"path/filepath"
	"testing"

	"fragdroid/internal/corpus"
)

// TestStoreShardedLayout pins the fan-out: every entry lands under
// <kind>/<first two hex of its hash>/<hash>.art, never directly in <kind>/.
func TestStoreShardedLayout(t *testing.T) {
	s := openTestStore(t)
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := s.Save(kindApp, key, []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	if flat, _ := filepath.Glob(filepath.Join(s.Dir(), kindApp, "*.art")); len(flat) != 0 {
		t.Fatalf("entries written outside shard dirs: %v", flat)
	}
	sharded, err := filepath.Glob(filepath.Join(s.Dir(), kindApp, "*", "*.art"))
	if err != nil || len(sharded) != 20 {
		t.Fatalf("want 20 sharded entries, got %d (err %v)", len(sharded), err)
	}
	for _, p := range sharded {
		shard := filepath.Base(filepath.Dir(p))
		name := filepath.Base(p)
		if len(shard) != 2 || name[:2] != shard {
			t.Fatalf("entry %s not in its hash-prefix shard", p)
		}
	}
}

// TestCacheEvict pins the release contract the streaming fold depends on:
// Evict drops a spec's in-memory entries (Live goes back to zero) while the
// persistent store keeps serving, so a re-lookup is a disk hit, not a
// rebuild.
func TestCacheEvict(t *testing.T) {
	dir := t.TempDir()
	c, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := corpus.DemoSpec()
	if _, err := c.App(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Extraction(spec); err != nil {
		t.Fatal(err)
	}
	if live := c.Live(); live != 2 {
		t.Fatalf("Live=%d before eviction, want 2", live)
	}
	c.Evict(spec)
	if live := c.Live(); live != 0 {
		t.Fatalf("Live=%d after eviction, want 0", live)
	}
	if _, err := c.App(spec); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 1 || st.DiskHits == 0 {
		t.Errorf("post-eviction lookup rebuilt instead of disk-loading: %+v", st)
	}
}
