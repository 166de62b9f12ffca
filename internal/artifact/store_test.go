package artifact

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/ir"
	"fragdroid/internal/statics"
)

// openTestStore returns a store rooted in a fresh temp dir.
func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := openTestStore(t)
	payload := []byte("the payload\nwith\x00binary bytes")
	if err := s.Save(kindApp, "some-key", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Load(kindApp, "some-key")
	if !ok {
		t.Fatal("Load missed a just-saved entry")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload differs: %q", got)
	}
	if _, ok := s.Load(kindExtraction, "some-key"); ok {
		t.Error("Load found the entry under the wrong kind")
	}
	if _, ok := s.Load(kindApp, "other-key"); ok {
		t.Error("Load found a never-saved key")
	}
}

// entryFile locates the single on-disk file behind a saved entry, wherever
// it lives under the kind's (sharded) directory tree.
func entryFile(t *testing.T, s *Store, kind, key string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(s.Dir(), kind, "*", "*.art"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one %s entry on disk, got %v (err %v)", kind, matches, err)
	}
	return matches[0]
}

// TestStoreCorruptEntriesAreSilentMisses damages a stored entry every way the
// format can be damaged; each one must read as a miss — never an error, never
// a wrong payload — because the cache's contract is to silently rebuild.
func TestStoreCorruptEntriesAreSilentMisses(t *testing.T) {
	payload := []byte("payload bytes for corruption testing")
	corruptions := map[string]func([]byte) []byte{
		"empty file":     func(b []byte) []byte { return nil },
		"truncated head": func(b []byte) []byte { return b[:3] },
		"truncated tail": func(b []byte) []byte { return b[:len(b)-4] },
		"bad magic":      func(b []byte) []byte { b[0] = 'X'; return b },
		"bad version": func(b []byte) []byte {
			// FDART1 -> FDART9: a future format version must read as a miss.
			b[5] = '9'
			return b
		},
		"flipped payload byte": func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		},
		"flipped checksum": func(b []byte) []byte {
			// The checksum is the last header line; damage its first hex digit.
			for i := range b {
				if b[i] == '\n' {
					b[i+1] = '~'
					break
				}
			}
			return b
		},
		"trailing garbage": func(b []byte) []byte { return append(b, "extra"...) },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := openTestStore(t)
			if err := s.Save(kindApp, "k", payload); err != nil {
				t.Fatal(err)
			}
			path := entryFile(t, s, kindApp, "k")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Load(kindApp, "k"); ok {
				t.Fatalf("corrupt entry loaded: %q", got)
			}
		})
	}
}

// TestStaleFingerprintIsRebuilt writes an entry under a doctored fingerprint
// line and checks the persistent cache treats it as a miss and overwrites it
// with a fresh build — the codec-version invalidation path.
func TestStaleFingerprintIsRebuilt(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := corpus.DemoSpec()
	if _, err := c1.App(spec); err != nil {
		t.Fatal(err)
	}
	path := entryFile(t, c1.Store(), kindApp, Key(spec))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The fingerprint is the second header line; a schema bump changes it.
	stale := append([]byte(nil), data...)
	for i := range stale {
		if stale[i] == '\n' {
			stale[i+1] = '~'
			break
		}
	}
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.App(spec); err != nil {
		t.Fatalf("stale entry surfaced as error: %v", err)
	}
	st := c2.Stats()
	if st.Builds != 1 || st.DiskMisses == 0 {
		t.Errorf("stale entry did not trigger a rebuild: %+v", st)
	}
	// The rebuild wrote the entry back; a third cache now loads it from disk.
	c3, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.App(spec); err != nil {
		t.Fatal(err)
	}
	if st := c3.Stats(); st.Builds != 0 || st.DiskHits != 1 {
		t.Errorf("rewritten entry not served from disk: %+v", st)
	}
}

// TestPersistentCacheWarmLoad checks the end-to-end cold/warm contract: a
// second cache on the same directory serves every artifact from disk, with
// zero builds and zero extractions. Executing either app compiles its
// program in process and writes nothing: the store holds one app entry and
// one extraction entry, and no ir directory.
func TestPersistentCacheWarmLoad(t *testing.T) {
	dir := t.TempDir()
	cold, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := corpus.DemoSpec()
	coldApp, err := cold.App(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cold.Extraction(spec); err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.Builds != 1 || st.Extractions != 1 || st.DiskWrites != 2 {
		t.Fatalf("cold stats: %+v", st)
	}
	ir.For(coldApp)

	warm, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmApp, err := warm.App(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Extraction(spec); err != nil {
		t.Fatal(err)
	}
	st = warm.Stats()
	if st.Builds != 0 || st.Extractions != 0 {
		t.Errorf("warm run rebuilt: %+v", st)
	}
	if st.DiskHits != 2 || st.DiskMisses != 0 {
		t.Errorf("warm run missed the store: %+v", st)
	}
	ir.For(warmApp)

	if st := cold.Stats(); st.DiskWrites != 2 {
		t.Errorf("executing the cold app wrote to the store: %+v", st)
	}
	if st := warm.Stats(); st.DiskWrites != 0 {
		t.Errorf("warm run wrote to the store: %+v", st)
	}
	entries := map[string]int{}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			entries[strings.Split(filepath.ToSlash(rel), "/")[0]]++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int{kindApp: 1, kindExtraction: 1}; !reflect.DeepEqual(entries, want) {
		t.Errorf("store holds %v, want %v", entries, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "ir")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("store has an ir directory (stat: %v)", err)
	}
}

// TestStoreWriteFailures blocks both entries of a spec so that every store
// write fails, and requires the failure to stay a counted error: the cache
// still serves the artifacts it built, each equal to an in-memory build,
// counts two DiskErrors and no DiskWrites, and leaves no temp file behind.
// Once the obstacle is gone, a fresh cache writes both entries and a third
// reads them back. Permission bits cannot make a write fail for root, so the
// obstacles are paths of the wrong type.
func TestStoreWriteFailures(t *testing.T) {
	spec := corpus.DemoSpec()
	mem := NewCache()
	wantApp, err := mem.App(spec)
	if err != nil {
		t.Fatal(err)
	}
	wantEx, err := mem.Extraction(spec)
	if err != nil {
		t.Fatal(err)
	}
	faults := []struct {
		name string
		// obstruct places the obstacle for the entry at path and returns
		// the path to remove to clear it.
		obstruct func(path string) (string, error)
	}{
		{"file at shard directory", func(path string) (string, error) {
			shard := filepath.Dir(path)
			return shard, os.WriteFile(shard, []byte("not a directory"), 0o644)
		}},
		{"directory at entry", func(path string) (string, error) {
			return path, os.MkdirAll(path, 0o755)
		}},
	}
	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := NewPersistentCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			var obstacles []string
			for _, kind := range []string{kindApp, kindExtraction} {
				o, err := f.obstruct(c.Store().entryPath(kind, Key(spec)))
				if err != nil {
					t.Fatal(err)
				}
				obstacles = append(obstacles, o)
			}
			ex, err := c.Extraction(spec)
			if err != nil {
				t.Fatalf("a failed write surfaced as an error: %v", err)
			}
			requireSameArtifacts(t, ex, wantApp, wantEx)
			if st := c.Stats(); st.DiskErrors != 2 || st.DiskWrites != 0 {
				t.Errorf("want 2 disk errors and no writes, got %+v", st)
			}
			if tmps := tempFiles(t, dir); len(tmps) != 0 {
				t.Errorf("temp files left behind: %v", tmps)
			}

			for _, o := range obstacles {
				if err := os.RemoveAll(o); err != nil {
					t.Fatal(err)
				}
			}
			refill, err := NewPersistentCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := refill.Extraction(spec); err != nil {
				t.Fatal(err)
			}
			if st := refill.Stats(); st.DiskWrites != 2 || st.DiskErrors != 0 {
				t.Errorf("cleared store: want 2 writes, got %+v", st)
			}
			warm, err := NewPersistentCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			ex, err = warm.Extraction(spec)
			if err != nil {
				t.Fatal(err)
			}
			requireSameArtifacts(t, ex, wantApp, wantEx)
			if st := warm.Stats(); st.DiskHits != 2 || st.Builds != 0 || st.Extractions != 0 {
				t.Errorf("refilled store not served from disk: %+v", st)
			}
		})
	}
}

// requireSameArtifacts compares an extraction and its app with in-memory
// builds through their store encodings, which cover every stored field.
func requireSameArtifacts(t *testing.T, ex *statics.Extraction, wantApp *apk.App, wantEx *statics.Extraction) {
	t.Helper()
	must := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(must(apk.EncodeApp(ex.App)), must(apk.EncodeApp(wantApp))) {
		t.Error("app differs from the in-memory build")
	}
	if !bytes.Equal(must(statics.EncodeExtraction(ex)), must(statics.EncodeExtraction(wantEx))) {
		t.Error("extraction differs from the in-memory build")
	}
}

// tempFiles lists the store's leftover temp files.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	var tmps []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), ".tmp-") {
			tmps = append(tmps, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// TestStoreConcurrentStress hammers one store directory from two cache
// instances and many goroutines per spec — the two-CLIs-sharing-a-store
// scenario. Run under -race this doubles as the scheduler/store data-race
// check; correctness-wise every caller must get a working app.
func TestStoreConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}

	specs := corpus.StudySpecs(1)[:12]
	const callersPerSpec = 4
	var wg sync.WaitGroup
	for _, c := range []*Cache{c1, c2} {
		for _, spec := range specs {
			for k := 0; k < callersPerSpec; k++ {
				wg.Add(1)
				go func(c *Cache, spec *corpus.AppSpec, wantExt bool) {
					defer wg.Done()
					if spec.Packed {
						return
					}
					app, err := c.App(spec)
					if err != nil {
						t.Errorf("App %s: %v", spec.Package, err)
						return
					}
					if app.Manifest.Package != spec.Package {
						t.Errorf("App %s returned %s", spec.Package, app.Manifest.Package)
					}
					if wantExt {
						if _, err := c.Extraction(spec); err != nil {
							t.Errorf("Extraction %s: %v", spec.Package, err)
						}
					}
				}(c, spec, k%2 == 0)
			}
		}
	}
	wg.Wait()

	// A fresh cache over the now-populated dir must be all disk hits.
	c3, err := NewPersistentCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range specs {
		if spec.Packed {
			continue
		}
		if _, err := c3.App(spec); err != nil {
			t.Fatal(err)
		}
	}
	if st := c3.Stats(); st.Builds != 0 || st.DiskMisses != 0 {
		t.Errorf("post-stress store incomplete: %+v", st)
	}
}

// TestKeyInjectiveEncoding pins the property the content key must have: two
// different specs never map to one key, even when naive string concatenation
// of their fields would collide.
func TestKeyInjectiveEncoding(t *testing.T) {
	base := func() *corpus.AppSpec {
		return &corpus.AppSpec{Package: "com.k"}
	}
	pairs := []struct {
		name string
		a, b *corpus.AppSpec
	}{
		{
			"field boundary shift",
			&corpus.AppSpec{Package: "com.k", Downloads: "ab"},
			&corpus.AppSpec{Package: "com.ka", Downloads: "b"},
		},
		{
			"list boundary shift",
			&corpus.AppSpec{Package: "com.k", Fragments: []corpus.FragmentSpec{{Name: "A"}, {Name: "B"}}},
			&corpus.AppSpec{Package: "com.k", Fragments: []corpus.FragmentSpec{{Name: "AB"}}},
		},
		{
			"empty-vs-missing gate",
			&corpus.AppSpec{Package: "com.k", Transition: []corpus.Transition{{From: "A", To: "B"}}},
			&corpus.AppSpec{Package: "com.k", Transition: []corpus.Transition{{From: "A", To: "B", Gate: &corpus.InputGate{}}}},
		},
		{
			"bool flag placement",
			func() *corpus.AppSpec {
				s := base()
				s.Activities = []corpus.ActivitySpec{{Name: "A", Launcher: true}}
				return s
			}(),
			func() *corpus.AppSpec {
				s := base()
				s.Activities = []corpus.ActivitySpec{{Name: "A", Isolated: true}}
				return s
			}(),
		},
	}
	for _, p := range pairs {
		if Key(p.a) == Key(p.b) {
			t.Errorf("%s: distinct specs share key %s", p.name, Key(p.a))
		}
	}
}
