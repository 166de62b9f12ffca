package artifact

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// The on-disk entry format, version 1:
//
//	FDART1\n
//	<schema fingerprint>\n
//	<kind>\n
//	<cache key>\n
//	<payload length, decimal>\n
//	<sha256 of payload, hex>\n
//	<payload bytes>
//
// Everything before the payload is the header. A loader rejects an entry —
// silently, reporting a plain miss so the caller rebuilds — when the magic,
// fingerprint, kind or key disagree, the length is malformed or the file is
// truncated, or the checksum does not match. Writers create entries as a
// temp file in the same directory and rename it into place, so readers (in
// this process or another) only ever observe complete entries.
const (
	storeMagic = "FDART1"

	// FormatVersion is the container format version; it is baked into the
	// magic line. Bump it when the header layout changes.
	FormatVersion = 1

	// appCodecVersion and extractionCodecVersion version the binc payload
	// schemas of the two artifact kinds. The binc codecs are positional —
	// an old payload read by a new decoder misaligns silently rather than
	// erroring — so any change to the encodings in apk/codec.go,
	// statics/codec.go or callgraph/codec.go — or to the corpus generator
	// in a way that alters built apps — MUST bump the corresponding version
	// here. A bump changes the fingerprint, every existing entry turns
	// stale, and the next run rebuilds and overwrites.
	appCodecVersion        = 2 // v2: intent filters carry deep-link data elements
	extractionCodecVersion = 4 // v4: the reach sets ride as one blob, decoded on first use
)

// Artifact kinds.
const (
	kindApp        = "app"
	kindExtraction = "extraction"
)

// Fingerprint returns the schema fingerprint stamped into every entry
// header: container format plus every payload codec version. Entries written
// under a different fingerprint are stale and read as misses.
func Fingerprint() string {
	return fmt.Sprintf("fdart%d/app%d/ext%d", FormatVersion, appCodecVersion, extractionCodecVersion)
}

// Store is a persistent, content-addressed artifact store rooted at one
// directory. Entries are addressed by (kind, cache key); the file name is
// the sha256 of the key, so arbitrary key strings map to safe paths. A Store
// is safe for concurrent use by multiple goroutines and multiple processes
// sharing the directory.
type Store struct {
	dir string

	// shardDirs memoizes shard directories already MkdirAll'd by this Store,
	// so a corpus-scale run pays one mkdir syscall per shard, not per entry.
	shardDirs sync.Map // string -> struct{}
}

// OpenStore opens (creating if needed) the store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty store directory")
	}
	for _, k := range []string{kindApp, kindExtraction} {
		if err := os.MkdirAll(filepath.Join(dir, k), 0o755); err != nil {
			return nil, fmt.Errorf("artifact: open store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// entryPath maps (kind, key) to the entry's file path. The keyspace fans out
// into 256 shard subdirectories per kind — <kind>/<first 2 hex of hash>/ — so
// a 10k-app corpus leaves ~40 entries per directory instead of piling tens of
// thousands of files into one, which degrades directory lookups and listing
// on most filesystems.
func (s *Store) entryPath(kind, key string) string {
	sum := sha256.Sum256([]byte(kind + "\x00" + key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, kind, name[:2], name+".art")
}

// ensureShardDir creates an entry's shard directory once per Store lifetime.
func (s *Store) ensureShardDir(dir string) error {
	if _, ok := s.shardDirs.Load(dir); ok {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.shardDirs.Store(dir, struct{}{})
	return nil
}

// Save writes an entry atomically: temp file in the destination directory,
// then rename. A concurrent Save of the same entry (another goroutine or
// another process) is harmless — both write complete files and the last
// rename wins.
func (s *Store) Save(kind, key string, payload []byte) error {
	path := s.entryPath(kind, key)
	if err := s.ensureShardDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("artifact: save %s: %w", kind, err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: save %s: %w", kind, err)
	}
	tmp := f.Name()
	w := bufio.NewWriter(f)
	sum := sha256.Sum256(payload)
	_, err = fmt.Fprintf(w, "%s\n%s\n%s\n%s\n%d\n%s\n",
		storeMagic, Fingerprint(), kind, key, len(payload), hex.EncodeToString(sum[:]))
	if err == nil {
		_, err = w.Write(payload)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, 0o644)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("artifact: save %s: %w", kind, err)
	}
	return nil
}

// Load reads an entry's payload. The boolean result reports a usable hit;
// any integrity problem — missing file, foreign magic, stale fingerprint,
// kind/key mismatch, truncation, checksum failure — reads as a miss so the
// caller rebuilds (and, on the next Save, repairs) the entry. Only the
// sharded path is read: entries that older builds wrote directly under
// <kind>/ carry a stale fingerprint, so they could never verify anyway.
func (s *Store) Load(kind, key string) ([]byte, bool) {
	return s.loadFile(s.entryPath(kind, key), kind, key)
}

// loadFile reads and verifies one entry file; any problem is a miss.
func (s *Store) loadFile(path, kind, key string) ([]byte, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	// Parse the six header lines in place; no intermediate line buffers.
	rest := data
	line := func() ([]byte, bool) {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return nil, false
		}
		l := rest[:nl]
		rest = rest[nl+1:]
		return l, true
	}
	if v, ok := line(); !ok || string(v) != storeMagic {
		return nil, false
	}
	if v, ok := line(); !ok || string(v) != Fingerprint() {
		return nil, false
	}
	if v, ok := line(); !ok || string(v) != kind {
		return nil, false
	}
	if v, ok := line(); !ok || string(v) != key {
		return nil, false
	}
	sizeLine, ok := line()
	if !ok {
		return nil, false
	}
	size, err := strconv.Atoi(string(sizeLine))
	if err != nil || size < 0 {
		return nil, false
	}
	wantSum, ok := line()
	if !ok {
		return nil, false
	}
	// Exactly size payload bytes must remain; trailing garbage means the
	// entry was not written by us.
	if len(rest) != size {
		return nil, false
	}
	payload := rest
	sum := sha256.Sum256(payload)
	var sumHex [2 * sha256.Size]byte
	hex.Encode(sumHex[:], sum[:])
	if !bytes.Equal(sumHex[:], wantSum) {
		return nil, false
	}
	return payload, true
}

// DefaultDir resolves the conventional store location: the FRAGDROID_CACHE
// environment variable when set, else <user cache dir>/fragdroid.
func DefaultDir() (string, error) {
	if dir := os.Getenv("FRAGDROID_CACHE"); dir != "" {
		return dir, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("artifact: no cache dir (set FRAGDROID_CACHE): %w", err)
	}
	return filepath.Join(base, "fragdroid"), nil
}

// ResolveDir maps a CLI -cache flag value to a store directory: "off"
// disables persistence (empty result), "auto" resolves DefaultDir, anything
// else is used verbatim.
func ResolveDir(flagVal string) (string, error) {
	switch flagVal {
	case "off", "":
		return "", nil
	case "auto":
		return DefaultDir()
	default:
		return flagVal, nil
	}
}
