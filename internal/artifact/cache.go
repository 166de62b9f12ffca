// Package artifact serves the expensive per-spec analysis artifacts —
// corpus app builds and static extractions — optionally backed by a
// persistent content-addressed store. Each kind has one fetch path: read
// the artifact from the store, or compute it and write it back.
//
// A corpus fold asks for each app once, so it fetches (FetchApp,
// FetchExtraction): the artifact goes straight to the caller and the cache
// keeps nothing in memory. Callers that ask for one spec more than once —
// evaluations, ablations, benchmark and CLI runs in one process — go
// through the single-flight memo (App, Extraction), which wraps the same
// fetch path, so each artifact is computed once per process; with a Store
// attached a warm second process skips building and static analysis
// entirely, decoding checksum-verified payloads instead. Compiled
// interpreter programs are not stored: ir.For compiles an app's program on
// its first execution in a process, once per app.
//
// Sharing is sound because both artifact kinds are read-only after
// construction: the device keeps widget visibility in per-activity
// overrides instead of writing layouts, and each exploration evolves a model
// derived from the extraction's AFTM (aftm.Model.Derive), which copies a
// part on its own first write and never writes the shared one. Every other
// field is only ever read.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"sync/atomic"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/statics"
)

// Key derives the cache key from the spec's content (not its pointer), so
// two independently constructed but identical specs share one artifact and
// two different specs sharing a package name can never collide on one cache
// slot. The canonical encoding is injective — every string is
// length-prefixed and every slice is count-prefixed — and covers every spec
// field (keyspec_guard_test.go breaks the build if AppSpec grows a field
// this encoding does not know about). A hand-rolled encoding instead of
// encoding/json keeps the per-lookup cost off the warm path's profile.
func Key(spec *corpus.AppSpec) string {
	bp := keyBufs.Get().(*[]byte)
	b := appendKeySpec((*bp)[:0], spec)
	sum := sha256.Sum256(b)
	*bp = b
	keyBufs.Put(bp)
	return spec.Package + "#" + hex.EncodeToString(sum[:12])
}

// keyBufs recycles Key's encode buffers, each pre-sized well above the
// largest corpus spec encoding so the append chain runs without a growslice.
// Pooled rather than on the stack: an 8 KiB stack buffer makes every
// pipeline goroutine that computes a key grow its stack to fit it.
var keyBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 8192)
	return &b
}}

func keyStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func keyStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = keyStr(b, s)
	}
	return b
}

func keyBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendKeySpec appends the canonical key encoding of every AppSpec field.
func appendKeySpec(b []byte, s *corpus.AppSpec) []byte {
	b = keyStr(b, s.Package)
	b = keyStr(b, s.Downloads)
	b = binary.AppendUvarint(b, uint64(len(s.Activities)))
	for _, a := range s.Activities {
		b = keyStr(b, a.Name)
		b = keyBool(b, a.Launcher)
		b = keyBool(b, a.Isolated)
		b = keyStr(b, a.RequiresExtra)
		b = keyBool(b, a.SupportFM)
		b = keyBool(b, a.PopupOnCreate)
		b = keyStr(b, a.DeepLink)
		b = keyStrs(b, a.Sensitive)
		b = binary.AppendUvarint(b, uint64(len(a.Wires)))
		for _, w := range a.Wires {
			b = keyStr(b, w.Fragment)
			b = binary.AppendUvarint(b, uint64(w.Kind))
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Fragments)))
	for _, f := range s.Fragments {
		b = keyStr(b, f.Name)
		b = keyBool(b, f.RequiresArgs)
		b = keyStrs(b, f.Sensitive)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Receivers)))
	for _, rc := range s.Receivers {
		b = keyStr(b, rc.Name)
		b = keyStrs(b, rc.Actions)
		b = keyStrs(b, rc.Sensitive)
		b = keyStr(b, rc.StartsActivity)
	}
	b = binary.AppendUvarint(b, uint64(len(s.Transition)))
	for _, t := range s.Transition {
		b = keyStr(b, t.From)
		b = keyStr(b, t.To)
		b = binary.AppendUvarint(b, uint64(t.Kind))
		b = keyStr(b, t.Action)
		if t.Gate == nil {
			b = keyBool(b, false)
		} else {
			b = keyBool(b, true)
			b = keyStr(b, t.Gate.Field)
			b = keyStr(b, t.Gate.Expected)
			b = keyStr(b, t.Gate.Hint)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Switches)))
	for _, sw := range s.Switches {
		b = keyStr(b, sw.From)
		b = keyStr(b, sw.To)
	}
	b = keyBool(b, s.Packed)
	return b
}

// appEntry is the single-flight slot for one built app: the first caller
// runs the build inside the Once, every other caller blocks on it and then
// shares the result.
type appEntry struct {
	once sync.Once
	app  *apk.App
	err  error
}

type extEntry struct {
	once sync.Once
	ex   *statics.Extraction
	err  error
}

// Cache fetches built apps and static extractions, and memoizes them by
// spec identity for callers that ask more than once. The zero value is not
// usable; use NewCache, NewPersistentCache, or the process-wide Default.
type Cache struct {
	mu   sync.Mutex
	apps map[string]*appEntry
	exts map[string]*extEntry

	// store, when non-nil, is the write-through/read-back disk layer: every
	// fetch consults it before computing, and every computed artifact (or
	// ErrPacked outcome) is written back. NewPersistentCache sets it before
	// the cache is shared, and nothing changes it after.
	store *Store

	hits        atomic.Uint64
	misses      atomic.Uint64
	builds      atomic.Uint64
	extractions atomic.Uint64

	diskHits   atomic.Uint64
	diskMisses atomic.Uint64
	diskWrites atomic.Uint64
	diskErrors atomic.Uint64
}

// NewCache returns an empty in-memory cache.
func NewCache() *Cache {
	return &Cache{
		apps: make(map[string]*appEntry),
		exts: make(map[string]*extEntry),
	}
}

// NewPersistentCache returns a cache backed by the persistent store at dir.
// An empty dir yields a plain in-memory cache.
func NewPersistentCache(dir string) (*Cache, error) {
	c := NewCache()
	if dir == "" {
		return c, nil
	}
	store, err := OpenStore(dir)
	if err != nil {
		return nil, err
	}
	c.store = store
	return c, nil
}

// Store returns the attached persistent store, nil for in-memory caches.
func (c *Cache) Store() *Store { return c.store }

// Default is the process-wide cache the evaluation entry points fall back
// to, so repeated benchmark and CLI runs in one process share artifacts
// through its memo. The corpus folds behind the study and lint sweeps fetch
// each app through it without memoizing, so they share nothing through it.
// It has no persistent layer.
var Default = NewCache()

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count memo lookups that found / did not find an
	// in-memory entry (across both artifact kinds). Fetches count neither.
	Hits, Misses uint64
	// Builds counts corpus app builds actually performed; Extractions
	// counts static extractions actually performed, by fetches and memo
	// misses alike. A warmed memo serving a repeated evaluation performs
	// zero of either.
	Builds, Extractions uint64
	// DiskHits and DiskMisses count store reads that served / did not
	// serve an artifact (zero without a store). DiskWrites counts entries
	// written back; DiskErrors counts failed write-backs (the computed
	// artifact is still served).
	DiskHits, DiskMisses, DiskWrites, DiskErrors uint64
	// Deprecated: IRHits and IRMisses are always zero. The store keeps no
	// compiled programs: ir.For compiles each app's program on its first
	// execution in a process.
	IRHits, IRMisses uint64
}

// Stats returns the current counter values.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Builds:      c.builds.Load(),
		Extractions: c.extractions.Load(),
		DiskHits:    c.diskHits.Load(),
		DiskMisses:  c.diskMisses.Load(),
		DiskWrites:  c.diskWrites.Load(),
		DiskErrors:  c.diskErrors.Load(),
	}
}

// Evict drops the memo's in-memory entries (app and extraction) of one
// spec, so a caller that looked a spec up through App or Extraction can
// release it. Persistent-store entries are untouched: a re-lookup misses in
// memory and reads back from disk. Evicting a spec that is still being
// computed is safe — the in-flight caller holds its own entry pointer and
// completes normally; the entry just becomes unreachable for new lookups.
func (c *Cache) Evict(spec *corpus.AppSpec) {
	key := Key(spec)
	c.mu.Lock()
	delete(c.apps, key)
	delete(c.exts, key)
	c.mu.Unlock()
}

// Live reports the number of in-memory entries the memo currently holds
// (apps plus extractions); a corpus fold, which only fetches, leaves it at
// zero.
func (c *Cache) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.apps) + len(c.exts)
}

// App payload framing: one tag byte ahead of the codec bytes. Packed specs
// persist their ErrPacked outcome so warm runs skip even the spec
// validation that precedes the error.
const (
	appTagBuilt  = 'B'
	appTagPacked = 'P'
)

// FetchApp returns the build of spec: read from the attached store, or
// built and written back to it. Packed specs yield apk.ErrPacked, exactly
// like corpus.BuildApp. Nothing is kept in memory, so a caller that asks
// for each spec once — a corpus fold — holds the app only while it uses
// it. Key is computed only when a store is attached. It counts builds and
// disk traffic like App, and no memo hit or miss.
func (c *Cache) FetchApp(spec *corpus.AppSpec) (*apk.App, error) {
	return c.fetchApp(spec, c.storeKey(spec))
}

// FetchExtraction returns the static extraction of spec's app, with the app
// fetched as FetchApp does and the extraction read from or written back to
// the store the same way. One Key serves both, and none is computed
// without a store. Nothing is kept in memory.
func (c *Cache) FetchExtraction(spec *corpus.AppSpec) (*statics.Extraction, error) {
	key := c.storeKey(spec)
	app, err := c.fetchApp(spec, key)
	if err != nil {
		return nil, err
	}
	return c.fetchExtraction(app, key)
}

// storeKey returns spec's Key when a store is attached, and "" without
// one, where nothing reads it.
func (c *Cache) storeKey(spec *corpus.AppSpec) string {
	if c.store == nil {
		return ""
	}
	return Key(spec)
}

// fetchApp is the one store path for apps: FetchApp calls it directly, and
// App inside its single-flight entry. key is spec's Key; it is read only
// when a store is attached.
func (c *Cache) fetchApp(spec *corpus.AppSpec, key string) (*apk.App, error) {
	if c.store != nil {
		if app, err, ok := c.loadApp(key); ok {
			return app, err
		}
	}
	c.builds.Add(1)
	app, err := corpus.BuildApp(spec)
	if c.store != nil {
		c.saveApp(key, app, err)
	}
	return app, err
}

// fetchExtraction is the one store path for extractions of app, the build
// of the spec whose Key is key.
func (c *Cache) fetchExtraction(app *apk.App, key string) (*statics.Extraction, error) {
	if c.store != nil {
		if payload, ok := c.store.Load(kindExtraction, key); ok {
			if ex, err := statics.DecodeExtraction(payload, app); err == nil {
				c.diskHits.Add(1)
				return ex, nil
			}
		}
		c.diskMisses.Add(1)
	}
	c.extractions.Add(1)
	ex, err := statics.Extract(app)
	if c.store != nil && err == nil {
		payload, encErr := statics.EncodeExtraction(ex)
		if encErr == nil {
			encErr = c.store.Save(kindExtraction, key, payload)
		}
		if encErr == nil {
			c.diskWrites.Add(1)
		} else {
			c.diskErrors.Add(1)
		}
	}
	return ex, err
}

// loadApp serves an app from the persistent store. The second result
// reports a usable hit (which may be a memoized ErrPacked outcome).
func (c *Cache) loadApp(key string) (*apk.App, error, bool) {
	payload, ok := c.store.Load(kindApp, key)
	if !ok || len(payload) == 0 {
		c.diskMisses.Add(1)
		return nil, nil, false
	}
	switch payload[0] {
	case appTagPacked:
		c.diskHits.Add(1)
		return nil, apk.ErrPacked, true
	case appTagBuilt:
		app, err := apk.DecodeApp(payload[1:])
		if err != nil {
			// A checksum-valid entry that fails to decode is schema drift the
			// fingerprint missed; treat as a miss and rebuild over it.
			c.diskMisses.Add(1)
			return nil, nil, false
		}
		c.diskHits.Add(1)
		return app, nil, true
	default:
		c.diskMisses.Add(1)
		return nil, nil, false
	}
}

// saveApp writes a build outcome through to the store. Only successful
// builds and the ErrPacked outcome persist; transient errors are recomputed
// per process.
func (c *Cache) saveApp(key string, app *apk.App, err error) {
	var payload []byte
	switch {
	case err == nil:
		data, encErr := apk.EncodeApp(app)
		if encErr != nil {
			c.diskErrors.Add(1)
			return
		}
		payload = append([]byte{appTagBuilt}, data...)
	case errors.Is(err, apk.ErrPacked):
		payload = []byte{appTagPacked}
	default:
		return
	}
	if err := c.store.Save(kindApp, key, payload); err != nil {
		c.diskErrors.Add(1)
		return
	}
	c.diskWrites.Add(1)
}

// App returns the memoized build of spec: the first lookup fetches it as
// FetchApp does, and every later one shares that result. Packed specs yield
// apk.ErrPacked, exactly like corpus.BuildApp; the error is memoized too.
// The returned App is shared between callers and must be treated as
// read-only.
func (c *Cache) App(spec *corpus.AppSpec) (*apk.App, error) {
	return c.app(spec, Key(spec))
}

// app is App for a spec whose Key is already known.
func (c *Cache) app(spec *corpus.AppSpec, key string) (*apk.App, error) {
	c.mu.Lock()
	e := c.apps[key]
	if e == nil {
		e = &appEntry{}
		c.apps[key] = e
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() { e.app, e.err = c.fetchApp(spec, key) })
	return e.app, e.err
}

// Extraction returns the memoized static extraction of spec, looking the
// app up through App's memo first. The shared *statics.Extraction is safe
// for concurrent explorations: each derives its own AFTM from the shared
// one and treats everything else as read-only.
func (c *Cache) Extraction(spec *corpus.AppSpec) (*statics.Extraction, error) {
	key := Key(spec)
	c.mu.Lock()
	e := c.exts[key]
	if e == nil {
		e = &extEntry{}
		c.exts[key] = e
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		app, err := c.app(spec, key)
		if err != nil {
			e.err = err
			return
		}
		e.ex, e.err = c.fetchExtraction(app, key)
	})
	return e.ex, e.err
}
