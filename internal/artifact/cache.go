// Package artifact memoizes the expensive per-spec analysis artifacts —
// corpus app builds and static extractions — behind a concurrency-safe,
// single-flight cache, optionally backed by a persistent content-addressed
// store. The evaluation harness calls corpus.BuildApp and statics.Extract
// for the same apps from every benchmark, ablation and CLI run; with the
// in-memory layer each artifact is computed once per process, and with a
// Store attached a warm second process skips building and static analysis
// entirely, decoding checksum-verified payloads instead.
//
// Sharing is sound because both artifact kinds are read-only after
// construction: the device clones layouts before mutating widget state, and
// the explorer clones the extraction's AFTM (the only mutable part) before
// evolving it. Every other field is only ever read.
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
	"fragdroid/internal/ir"
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

// Cache memoizes built apps and static extractions by spec identity. The
// zero value is not usable; use NewCache, NewPersistentCache, or the
// process-wide Default.
type Cache struct {
	mu   sync.Mutex
	apps map[string]*appEntry
	exts map[string]*extEntry

	// store, when non-nil, is the write-through/read-back disk layer: every
	// in-memory miss consults it before computing, and every computed
	// artifact (or ErrPacked outcome) is written back.
	store *Store

	hits        atomic.Uint64
	misses      atomic.Uint64
	builds      atomic.Uint64
	extractions atomic.Uint64

	diskHits   atomic.Uint64
	diskMisses atomic.Uint64
	diskWrites atomic.Uint64
	diskErrors atomic.Uint64

	// The compiled-program layer has its own counters: a warm run that skips
	// method compilation entirely is a distinct observable from app/extraction
	// disk traffic.
	irHits   atomic.Uint64
	irMisses atomic.Uint64
	irWrites atomic.Uint64
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

// SetStore attaches (or, with nil, detaches) the persistent layer. Already
// memoized entries are unaffected.
func (c *Cache) SetStore(s *Store) {
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
}

// Store returns the attached persistent store, nil for in-memory caches.
func (c *Cache) Store() *Store {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store
}

// Default is the process-wide cache the evaluation entry points fall back
// to, so repeated benchmark and CLI runs in one process share artifacts;
// the corpus folds behind the study and lint sweeps evict each app they
// fold, so they share nothing through it. It has no persistent layer;
// attach one with SetStore if a CLI wants the default cache disk-backed.
var Default = NewCache()

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count lookups that found / did not find an in-memory
	// entry (across both artifact kinds).
	Hits, Misses uint64
	// Builds counts corpus app builds actually performed; Extractions
	// counts static extractions actually performed. A warmed cache serving
	// a repeated evaluation performs zero of either.
	Builds, Extractions uint64
	// DiskHits and DiskMisses count in-memory misses served / not served by
	// the persistent store (zero without one). DiskWrites counts entries
	// written back; DiskErrors counts failed write-backs (the computed
	// artifact is still served from memory).
	DiskHits, DiskMisses, DiskWrites, DiskErrors uint64
	// IRHits counts compiled instruction programs decoded from disk (the warm
	// run skipped method compilation); IRMisses counts programs compiled in
	// process; IRWrites counts programs written back. All zero without a
	// persistent store — in-memory reuse is handled by ir's own registry.
	IRHits, IRMisses, IRWrites uint64
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
		IRHits:      c.irHits.Load(),
		IRMisses:    c.irMisses.Load(),
		IRWrites:    c.irWrites.Load(),
	}
}

// Evict drops the in-memory entries (app and extraction) of one spec. Every
// corpus fold calls it after folding an app's results so the cache's live
// set tracks the pipeline window instead of the whole corpus — without
// eviction the entry maps pin every built app and extraction until process
// exit, and every GC cycle re-marks them. Persistent-store entries are
// untouched: a re-lookup misses in memory and reads back from disk.
// Evicting a spec that is still being computed is safe — the in-flight
// caller holds its own entry pointer and completes normally; the entry
// just becomes unreachable for new lookups.
func (c *Cache) Evict(spec *corpus.AppSpec) {
	key := Key(spec)
	c.mu.Lock()
	delete(c.apps, key)
	delete(c.exts, key)
	c.mu.Unlock()
}

// Live reports the number of in-memory entries currently held (apps plus
// extractions) — the quantity the streaming pipeline's bounded-memory tests
// assert stays within the window.
func (c *Cache) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.apps) + len(c.exts)
}

// Reset drops all in-memory entries and zeroes the counters. Entries in the
// persistent store are kept: a subsequent lookup misses in memory and reads
// back from disk.
func (c *Cache) Reset() {
	c.mu.Lock()
	c.apps = make(map[string]*appEntry)
	c.exts = make(map[string]*extEntry)
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.builds.Store(0)
	c.extractions.Store(0)
	c.diskHits.Store(0)
	c.diskMisses.Store(0)
	c.diskWrites.Store(0)
	c.diskErrors.Store(0)
	c.irHits.Store(0)
	c.irMisses.Store(0)
	c.irWrites.Store(0)
}

// App payload framing: one tag byte ahead of the codec bytes. Packed specs
// persist their ErrPacked outcome so warm runs skip even the spec
// validation that precedes the error.
const (
	appTagBuilt  = 'B'
	appTagPacked = 'P'
)

// loadApp serves an app from the persistent store. The second result
// reports a usable hit (which may be a memoized ErrPacked outcome).
func (c *Cache) loadApp(store *Store, key string) (*apk.App, error, bool) {
	payload, ok := store.Load(kindApp, key)
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
func (c *Cache) saveApp(store *Store, key string, app *apk.App, err error) {
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
	if err := store.Save(kindApp, key, payload); err != nil {
		c.diskErrors.Add(1)
		return
	}
	c.diskWrites.Add(1)
}

// installIR parks the compiled-program store entry for a built app behind a
// lazy source: nothing is read, decoded or compiled until the app's first
// execution asks ir.For for its program. Static-only consumers — lint
// studies, source exports, reach audits — therefore pay zero IR cost on warm
// (or cold) loads. On first execution a cleanly decoding entry counts as a
// hit; a missing, corrupt or stale entry is a plain miss whose freshly
// compiled program is written back to repair the store. The resolved program
// registers in ir's process-wide registry keyed by the app pointer, so every
// device created for this app — in any engine — shares the one program and
// its inline caches.
func (c *Cache) installIR(store *Store, key string, app *apk.App) {
	ir.RegisterLazy(app,
		func() ([]byte, bool) { return store.Load(kindIR, key) },
		func() { c.irHits.Add(1) },
		func(p *ir.Program) {
			c.irMisses.Add(1)
			if err := store.Save(kindIR, key, ir.Encode(p)); err != nil {
				c.diskErrors.Add(1)
				return
			}
			c.irWrites.Add(1)
		})
}

// App returns the memoized build of spec. Packed specs yield apk.ErrPacked,
// exactly like corpus.BuildApp; the error is memoized too. The returned App
// is shared between callers and must be treated as read-only.
func (c *Cache) App(spec *corpus.AppSpec) (*apk.App, error) {
	key := Key(spec)
	c.mu.Lock()
	e := c.apps[key]
	store := c.store
	if e == nil {
		e = &appEntry{}
		c.apps[key] = e
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if store != nil {
			if app, err, ok := c.loadApp(store, key); ok {
				e.app, e.err = app, err
				if e.err == nil && e.app != nil {
					c.installIR(store, key, e.app)
				}
				return
			}
		}
		c.builds.Add(1)
		e.app, e.err = corpus.BuildApp(spec)
		if store != nil {
			c.saveApp(store, key, e.app, e.err)
			if e.err == nil && e.app != nil {
				c.installIR(store, key, e.app)
			}
		}
	})
	return e.app, e.err
}

// Extraction returns the memoized static extraction of spec, building the
// app first if needed. The shared *statics.Extraction is safe for
// concurrent explorations: explorers clone the mutable AFTM and treat
// everything else as read-only.
func (c *Cache) Extraction(spec *corpus.AppSpec) (*statics.Extraction, error) {
	key := Key(spec)
	c.mu.Lock()
	e := c.exts[key]
	store := c.store
	if e == nil {
		e = &extEntry{}
		c.exts[key] = e
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		app, err := c.App(spec)
		if err != nil {
			e.err = err
			return
		}
		if store != nil {
			if payload, ok := store.Load(kindExtraction, key); ok {
				if ex, decErr := statics.DecodeExtraction(payload, app); decErr == nil {
					c.diskHits.Add(1)
					e.ex = ex
					return
				}
			}
			c.diskMisses.Add(1)
		}
		c.extractions.Add(1)
		e.ex, e.err = statics.Extract(app)
		if store != nil && e.err == nil {
			if payload, encErr := statics.EncodeExtraction(e.ex); encErr == nil {
				if err := store.Save(kindExtraction, key, payload); err == nil {
					c.diskWrites.Add(1)
				} else {
					c.diskErrors.Add(1)
				}
			} else {
				c.diskErrors.Add(1)
			}
		}
	})
	return e.ex, e.err
}
