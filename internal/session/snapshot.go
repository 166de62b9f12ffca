package session

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"fragdroid/internal/apk"
	"fragdroid/internal/binc"
	"fragdroid/internal/device"
	"fragdroid/internal/robotium"
)

// DefaultSnapshotCapacity bounds the memo when the caller does not pick a
// size. One entry holds a deep copy of an activity back stack plus the
// side-effect journal of its route prefix — modest, so the default is
// generous enough that real explorations never evict.
const DefaultSnapshotCapacity = 4096

// SnapshotStore is the persistence hook the memo writes through: a durable
// (key, payload) store for encoded snapshot packs. *artifact.Store implements
// it; the indirection keeps the session layer free of a dependency on the
// artifact package.
type SnapshotStore interface {
	LoadSnapshot(key string) ([]byte, bool)
	SaveSnapshot(key string, payload []byte) error
}

// packState is the memo's view of one persisted snapshot pack: every durable
// entry for one (app fingerprint, dialog policy) pair, stored as a single
// artifact so a warm run pays one read per app instead of one per prefix.
//
// A loaded pack starts lazy: the load indexes the pack — per entry just the
// routing key and the byte range of its framed body — without decoding a
// single op or snapshot. An entry decodes on its first routing-index hit and
// moves from pending to entries; prefixes a run never asks for stay encoded
// for the process lifetime, which is what makes a warm persistent run
// strictly cheaper than re-execution even when the pack holds far more
// routes than the run replays. payload and rd are retained only while
// pending entries remain; app is the installation pending snapshots will
// bind to. once guards the one disk read; every other field is guarded by
// the memo mutex.
type packState struct {
	once    sync.Once
	entries map[memoKey]*packEntry
	pending map[memoKey]int // key -> body offset in payload
	payload []byte
	rd      *binc.Reader
	app     *apk.App
	dirty   bool
}

// has reports whether the pack already holds key, decoded or still pending.
// Callers deciding whether to add a durable entry must consult both tiers,
// or a warm run would re-add (and re-dirty) every prefix it re-executes.
func (p *packState) has(key memoKey) bool {
	if _, ok := p.entries[key]; ok {
		return true
	}
	_, ok := p.pending[key]
	return ok
}

// packEntry is one durable prefix: the op list (the collision guard) plus
// the decoded device snapshot. A pack decodes in a single pass over one
// shared string table — journal lines and class names repeat across an
// app's prefixes, so the pack-wide table allocates each string once where
// per-entry payloads would pay a full decode per serve. Entries are
// immutable after creation.
type packEntry struct {
	ops  []robotium.Op
	snap *device.Snapshot
	size int
}

// SnapshotMemo is an LRU-bounded, concurrency-safe memo of device snapshots
// keyed by executed route prefixes. Sessions that share a memo resume route
// execution from the longest memoized prefix instead of re-executing it from
// launch; because the simulator is deterministic, the state after a prefix is
// a pure function of (app content, prefix, auto-dismiss policy), which is
// exactly the memo key. The app is identified by a content fingerprint of its
// encoded spec — not pointer identity — so snapshots are valid across
// re-installs of the same build and, through an attached SnapshotStore,
// across process restarts. Snapshots are immutable, so one entry can seed any
// number of devices concurrently.
type SnapshotMemo struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recently used
	idx map[memoKey]*list.Element

	disk      SnapshotStore
	packs     map[string]*packState
	evictions int
	// pinned is the estimated snapshot bytes held per app fingerprint, over
	// the LRU and the packs alike, so one app's figure never depends on what
	// apps explored concurrently over the same memo have stored.
	pinned      map[string]int
	diskHits    int
	diskMisses  int
	diskWrites  int
	packIndexed int
	packDecoded int

	// hasDisk mirrors disk != nil for lock-free gating of the pack machinery
	// on the hot lookup path; packCache resolves (app, policy) to its pack
	// without the mutex or a key allocation once the first lookup paid them.
	hasDisk   atomic.Bool
	packCache sync.Map // packCacheKey -> *packState
}

// packCacheKey caches pack resolution per installed app pointer; two
// installs of the same build reach the same *packState through m.packs.
type packCacheKey struct {
	app         *apk.App
	autoDismiss bool
}

// memoKey identifies one memoized prefix. fp is the content fingerprint of
// the installed app's encoded spec (same build ⇒ same fingerprint, so stale
// snapshots from a different build are unreachable); autoDismiss is part of
// the key because the dialog policy changes what a prefix execution does; n
// plus the chained FNV-64a hash identify the operation sequence, with a
// stored-ops equality check guarding against hash collisions.
type memoKey struct {
	fp          string
	autoDismiss bool
	n           int
	hash        uint64
}

type memoEntry struct {
	key  memoKey
	ops  []robotium.Op
	snap *device.Snapshot
	size int
}

// appFingerprint returns the content fingerprint of an installed app: the
// hex sha256 of its encoded spec. Two installations of byte-identical builds
// share a fingerprint — and therefore share memo entries — while any content
// difference separates them. Computing one re-encodes the whole app, which
// must not happen on every memo probe, so the result is cached in the app's
// own fingerprint cell: a cache keyed by app pointer outside the app would
// keep every app it had seen alive.
func appFingerprint(app *apk.App) string {
	cell := app.FingerprintCell()
	if fp, ok := cell.Load().(string); ok {
		return fp
	}
	var fp string
	if data, err := apk.EncodeApp(app); err == nil {
		sum := sha256.Sum256(data)
		fp = hex.EncodeToString(sum[:])
	} else {
		// Unencodable apps fall back to pointer identity: still correct,
		// just not shareable across installs or processes.
		fp = fmt.Sprintf("unhashable:%p", app)
	}
	cell.Store(fp)
	return fp
}

// NewSnapshotMemo returns a memo bounded to capacity entries;
// capacity <= 0 selects DefaultSnapshotCapacity.
func NewSnapshotMemo(capacity int) *SnapshotMemo {
	if capacity <= 0 {
		capacity = DefaultSnapshotCapacity
	}
	return &SnapshotMemo{
		cap:    capacity,
		lru:    list.New(),
		idx:    make(map[memoKey]*list.Element),
		packs:  make(map[string]*packState),
		pinned: make(map[string]int),
	}
}

// AttachStore wires a persistence layer under the memo: full-route stores
// accumulate in per-app snapshot packs that Flush writes out, and lookups
// that miss in memory are served from the app's pack (loaded once per app,
// not once per prefix). Attaching a store is what makes warm exploration
// survive process restarts.
func (m *SnapshotMemo) AttachStore(st SnapshotStore) {
	m.mu.Lock()
	m.disk = st
	m.mu.Unlock()
	m.hasDisk.Store(st != nil)
}

// Len reports the number of memoized prefixes.
func (m *SnapshotMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// Evictions reports the total number of entries evicted by capacity
// pressure over the memo's lifetime.
func (m *SnapshotMemo) Evictions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}

// BytesPinned reports the estimated bytes of snapshot state the memo
// currently holds for one app: its memoized prefixes plus its loaded and
// stored pack entries, encoded or decoded.
func (m *SnapshotMemo) BytesPinned(app *apk.App) int {
	fp := appFingerprint(app)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pinned[fp]
}

// pinLocked adjusts the bytes held for one app fingerprint, dropping the
// entry once it reaches zero. Caller holds m.mu.
func (m *SnapshotMemo) pinLocked(fp string, delta int) {
	if n := m.pinned[fp] + delta; n != 0 {
		m.pinned[fp] = n
	} else {
		delete(m.pinned, fp)
	}
}

// DiskStats reports the persistence-layer traffic: lookups served from a
// loaded snapshot pack, full-length lookups that consulted the pack and
// missed, and packs written out by Flush.
func (m *SnapshotMemo) DiskStats() (hits, misses, writes int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.diskHits, m.diskMisses, m.diskWrites
}

// PackStats reports the lazy-decode behavior of loaded snapshot packs:
// indexed counts entries registered by pack loads (routing key and byte
// range only), decoded counts entries actually materialized — on a routing
// hit, or by Flush folding leftovers into a rewrite. decoded stays well
// under indexed whenever a run replays fewer routes than its packs hold;
// that gap is the work lazy loading avoided.
func (m *SnapshotMemo) PackStats() (indexed, decoded int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.packIndexed, m.packDecoded
}

// pack resolves the snapshot pack for an installed app, caching the result
// per app pointer so the hot paths pay one lock-free map load instead of a
// mutex round trip and a key render on every probe. Returns nil when no
// store is attached.
func (m *SnapshotMemo) pack(app *apk.App, fp string, autoDismiss bool) *packState {
	ck := packCacheKey{app: app, autoDismiss: autoDismiss}
	if v, ok := m.packCache.Load(ck); ok {
		return v.(*packState)
	}
	p := m.ensurePack(app, fp, autoDismiss)
	if p != nil {
		m.packCache.Store(ck, p)
	}
	return p
}

// ensurePack returns the pack for (fp, autoDismiss), loading it from the
// attached store on first touch. Returns nil when no store is attached. The
// single disk read and index pass run outside the memo mutex; the index
// merges under it, never displacing entries this process stored meanwhile.
// Nothing is decoded here: entries materialize on their first routing hit,
// bound to the app recorded below (serves for other installs of the same
// build rebind at lookup time).
func (m *SnapshotMemo) ensurePack(app *apk.App, fp string, autoDismiss bool) *packState {
	m.mu.Lock()
	disk := m.disk
	if disk == nil {
		m.mu.Unlock()
		return nil
	}
	pk := packKey(fp, autoDismiss)
	p, ok := m.packs[pk]
	if !ok {
		p = &packState{entries: make(map[memoKey]*packEntry)}
		m.packs[pk] = p
	}
	m.mu.Unlock()

	p.once.Do(func() {
		payload, ok := disk.LoadSnapshot(pk)
		if !ok {
			return
		}
		rd, pending, err := indexPack(payload, fp, autoDismiss)
		if err != nil {
			// A corrupt pack degrades to a silent miss for every prefix; the
			// run re-executes, re-stores, and the next Flush repairs the file.
			return
		}
		m.mu.Lock()
		p.payload = payload
		p.rd = rd
		p.pending = pending
		p.app = app
		m.packIndexed += len(pending)
		// The lazy tier pins only the encoded bytes; decoded snapshot sizes
		// are added entry by entry as routing hits materialize them.
		m.pinLocked(fp, len(payload))
		m.mu.Unlock()
	})
	return p
}

// decodePendingLocked materializes one pending entry, moving it from the
// encoded tier to entries. Caller holds m.mu. A decode failure means bytes
// past the container checksum are inconsistent with the index — effectively
// impossible short of a codec bug — and poisons the shared reader, so the
// whole lazy tier is dropped: every remaining pending prefix reads as a
// miss, re-executes, and the next Flush rewrites the pack.
func (m *SnapshotMemo) decodePendingLocked(p *packState, key memoKey) *packEntry {
	if p.rd == nil {
		// The lazy tier was already dropped by an earlier decode failure.
		return nil
	}
	off := p.pending[key]
	r := p.rd
	r.Seek(off)
	ops := make([]robotium.Op, 0, key.n)
	for j := 0; j < key.n && r.Err() == nil; j++ {
		ops = append(ops, robotium.Op{
			Kind:      robotium.OpKind(r.Uvarint()),
			Ref:       r.Str(),
			Value:     r.Str(),
			Activity:  r.Str(),
			Fragment:  r.Str(),
			Container: r.Str(),
		})
	}
	snap, err := device.DecodeSnapshotFrom(r, p.app)
	if err != nil || r.Err() != nil {
		m.pinLocked(key.fp, -len(p.payload))
		p.pending, p.payload, p.rd = nil, nil, nil
		return nil
	}
	e := &packEntry{ops: ops, snap: snap, size: snap.SizeEstimate()}
	p.entries[key] = e
	delete(p.pending, key)
	m.pinLocked(key.fp, e.size)
	m.packDecoded++
	if len(p.pending) == 0 {
		// Fully materialized: release the encoded payload and its reader.
		m.pinLocked(key.fp, -len(p.payload))
		p.pending, p.payload, p.rd = nil, nil, nil
	}
	return e
}

// LongestPrefix finds the longest memoized prefix of ops for the given app
// and dialog policy. It returns the snapshot (bound to app), the prefix
// length, and the chained hash of that prefix (the seed for extending the
// chain over the remaining ops). At each length the in-memory LRU is
// consulted first, then the app's loaded snapshot pack — its own serving
// tier: pack entries are pinned for the process lifetime and served in
// place, not copied into the LRU. On a miss it returns (nil, 0, fnvOffset).
func (m *SnapshotMemo) LongestPrefix(app *apk.App, autoDismiss bool, ops []robotium.Op) (*device.Snapshot, int, uint64) {
	if len(ops) == 0 {
		return nil, 0, fnvOffset
	}
	fp := appFingerprint(app)
	// Chained prefix hashes: hs[i] covers ops[:i]. Routes are short, so the
	// table almost always fits on the stack.
	var hsBuf [24]uint64
	hs := hsBuf[:0]
	if len(ops)+1 > len(hsBuf) {
		hs = make([]uint64, 0, len(ops)+1)
	}
	hs = append(hs, fnvOffset)
	for i, op := range ops {
		hs = append(hs, hashOp(hs[i], op))
	}
	// Pack resolution stays off the no-store hot path entirely; with a store
	// it is a lock-free cache load after the first probe for this app.
	var p *packState
	if m.hasDisk.Load() {
		p = m.pack(app, fp, autoDismiss)
	}

	// Scan lengths longest-first under the lock, memory before pack at each
	// length.
	m.mu.Lock()
	for n := len(ops); n >= 1; n-- {
		key := memoKey{fp: fp, autoDismiss: autoDismiss, n: n, hash: hs[n]}
		if el, ok := m.idx[key]; ok {
			e := el.Value.(*memoEntry)
			if opsEqual(e.ops, ops[:n]) {
				m.lru.MoveToFront(el)
				snap := e.snap
				m.mu.Unlock()
				return snap.Rebind(app), n, hs[n]
			}
		}
		if p != nil {
			e, ok := p.entries[key]
			if !ok && p.pending != nil {
				if _, pend := p.pending[key]; pend {
					// First routing hit on an encoded entry: decode it now.
					e = m.decodePendingLocked(p, key)
					ok = e != nil
				}
			}
			if ok && opsEqual(e.ops, ops[:n]) {
				m.diskHits++
				snap := e.snap
				m.mu.Unlock()
				return snap.Rebind(app), n, hs[n]
			}
			if n == len(ops) {
				// Only full-length lookups count as pack misses: shorter
				// prefixes are opportunistic.
				m.diskMisses++
			}
		}
	}
	m.mu.Unlock()
	return nil, 0, fnvOffset
}

// Store memoizes the device's current state as the snapshot for ops,
// returning the number of entries evicted to make room. An existing entry is
// kept — the first capture wins, and deterministic execution guarantees any
// re-capture would be identical — so repeat executions pay only the hash
// probe, not a deep copy. With a store attached the snapshot is also
// persisted. The caller must only store states actually reached by executing
// ops from a fresh start (and never crashed ones); sessions do this via the
// robotium checkpoint hook.
func (m *SnapshotMemo) Store(app *apk.App, autoDismiss bool, ops []robotium.Op, d *device.Device) int {
	h := fnvOffset
	for _, op := range ops {
		h = hashOp(h, op)
	}
	return m.store(app, autoDismiss, h, ops, d, true)
}

// store is Store with the chained hash precomputed — sessions extend the
// hash incrementally across checkpoints instead of rehashing the prefix —
// and a persistence gate: only full-route captures go durable (partial
// prefixes are one checkpoint of a longer route; persisting every prefix
// would multiply pack size for states the full entry subsumes). Durable
// entries accumulate in the app's pack and hit disk when Flush runs.
func (m *SnapshotMemo) store(app *apk.App, autoDismiss bool, hash uint64, ops []robotium.Op, d *device.Device, persist bool) int {
	if len(ops) == 0 {
		return 0
	}
	fp := appFingerprint(app)
	key := memoKey{fp: fp, autoDismiss: autoDismiss, n: len(ops), hash: hash}
	m.mu.Lock()
	if el, ok := m.idx[key]; ok {
		m.lru.MoveToFront(el)
		m.mu.Unlock()
		return 0
	}
	m.mu.Unlock()

	// Capture outside the lock: the deep copy is the expensive part.
	snap := d.Snapshot()
	opsCopy := append([]robotium.Op(nil), ops...)
	evicted := m.insert(key, opsCopy, snap)

	if persist && m.hasDisk.Load() && !snap.Crashed() {
		if p := m.pack(app, fp, autoDismiss); p != nil {
			m.mu.Lock()
			if !p.has(key) {
				// Encoding is deferred to Flush, where the whole pack shares
				// one string table; the run only pins the snapshot pointer.
				e := &packEntry{ops: opsCopy, snap: snap, size: snap.SizeEstimate()}
				p.entries[key] = e
				p.dirty = true
				m.pinLocked(fp, e.size)
			}
			m.mu.Unlock()
		}
	}
	return evicted
}

// Promote marks an already-memoized prefix durable. Routes that crash or
// error never reach the full-route persistence gate, so without promotion a
// warm run re-executes them from launch every time; promoting the longest
// non-crashed checkpoint lets it resume at the failing op instead. The entry
// must already be in memory (checkpoints put it there) and not crashed; a
// no-op otherwise, or without an attached store.
func (m *SnapshotMemo) Promote(app *apk.App, autoDismiss bool, hash uint64, ops []robotium.Op) {
	if len(ops) == 0 || !m.hasDisk.Load() {
		return
	}
	fp := appFingerprint(app)
	key := memoKey{fp: fp, autoDismiss: autoDismiss, n: len(ops), hash: hash}
	m.mu.Lock()
	el, ok := m.idx[key]
	m.mu.Unlock()
	if !ok {
		return
	}
	e := el.Value.(*memoEntry)
	if !opsEqual(e.ops, ops) || e.snap.Crashed() {
		return
	}
	p := m.pack(app, fp, autoDismiss)
	if p == nil {
		return
	}
	m.mu.Lock()
	if !p.has(key) {
		p.entries[key] = &packEntry{ops: e.ops, snap: e.snap, size: e.size}
		p.dirty = true
		m.pinLocked(fp, e.size)
	}
	m.mu.Unlock()
}

// Flush writes every dirty snapshot pack through the attached store — one
// artifact per (app, dialog policy), entries in deterministic order — and
// returns the first write error. Entries loaded from disk merge with entries
// stored this run, so concurrent processes lose nothing but each other's
// unmerged additions (last writer wins, as with any artifact). Without an
// attached store, or with nothing new to persist, Flush is a no-op.
func (m *SnapshotMemo) Flush() error {
	m.mu.Lock()
	disk := m.disk
	type job struct {
		pk string
		p  *packState
	}
	var jobs []job
	for pk, p := range m.packs {
		if p.dirty {
			jobs = append(jobs, job{pk, p})
		}
	}
	m.mu.Unlock()
	if disk == nil {
		return nil
	}
	var firstErr error
	for _, j := range jobs {
		m.mu.Lock()
		// A dirty pack rewrites the whole artifact, so entries still encoded
		// must fold in or the rewrite would drop them. Clean packs never get
		// here — their pending tier stays encoded for the process lifetime.
		for k := range j.p.pending {
			m.decodePendingLocked(j.p, k)
		}
		keys := make([]memoKey, 0, len(j.p.entries))
		for k := range j.p.entries {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].n != keys[b].n {
				return keys[a].n < keys[b].n
			}
			return keys[a].hash < keys[b].hash
		})
		entries := make([]*packEntry, len(keys))
		for i, k := range keys {
			entries[i] = j.p.entries[k]
		}
		j.p.dirty = false
		m.mu.Unlock()

		if err := disk.SaveSnapshot(j.pk, encodePack(keys, entries)); err != nil {
			m.mu.Lock()
			j.p.dirty = true
			m.mu.Unlock()
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		m.mu.Lock()
		m.diskWrites++
		m.mu.Unlock()
	}
	return firstErr
}

// ReleaseApp drops every memo resource tied to one installed app: its
// memoized prefixes, its loaded snapshot packs (a dirty pack is flushed
// through the attached store first, so nothing learned this run is lost)
// and its pack-cache bindings. The streaming corpus pipeline calls it after
// folding an app's results — without the release the memo pins every
// explored app's snapshots for as long as the memo lives. Re-exploring a
// released app later is correct, just cold in memory: the pack reloads from
// disk.
func (m *SnapshotMemo) ReleaseApp(app *apk.App) error {
	// Flush skips clean packs, so in a streaming run this writes exactly the
	// released app's own pack (earlier apps were flushed at their release).
	err := m.Flush()
	fp := appFingerprint(app)
	m.mu.Lock()
	for key, el := range m.idx {
		if key.fp == fp {
			m.lru.Remove(el)
			delete(m.idx, key)
		}
	}
	for _, ad := range []bool{false, true} {
		delete(m.packs, packKey(fp, ad))
		m.packCache.Delete(packCacheKey{app: app, autoDismiss: ad})
	}
	// Every byte pinned for fp sat in the entries and packs just dropped.
	delete(m.pinned, fp)
	m.mu.Unlock()
	return err
}

// insert adds an entry under first-capture-wins semantics and applies
// capacity eviction, returning the number of entries evicted.
func (m *SnapshotMemo) insert(key memoKey, ops []robotium.Op, snap *device.Snapshot) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.idx[key]; ok {
		m.lru.MoveToFront(el)
		return 0
	}
	e := &memoEntry{key: key, ops: ops, snap: snap, size: snap.SizeEstimate()}
	m.idx[key] = m.lru.PushFront(e)
	m.pinLocked(key.fp, e.size)
	evicted := 0
	for m.lru.Len() > m.cap {
		back := m.lru.Back()
		m.lru.Remove(back)
		be := back.Value.(*memoEntry)
		delete(m.idx, be.key)
		m.pinLocked(be.key.fp, -be.size)
		m.evictions++
		evicted++
	}
	return evicted
}

// packKey renders a pack's persistent cache key.
func packKey(fp string, autoDismiss bool) string {
	return fmt.Sprintf("%s|ad=%t", fp, autoDismiss)
}

// encodePack frames a snapshot pack: an entry count, then per entry the
// chained hash (the routing index), the op count, the byte length of the
// entry body, and the body itself — the op list (the collision guard:
// lookups verify it matches the requested prefix exactly) followed by the
// snapshot — all behind one shared string table. The body length is what a
// warm load's index pass skips by; string interning is unaffected because
// the table sits ahead of the body and refs are indices into it.
func encodePack(keys []memoKey, entries []*packEntry) []byte {
	w := binc.NewWriter()
	w.Int(len(entries))
	for i, e := range entries {
		w.Uvarint(keys[i].hash)
		w.Int(len(e.ops))
		mark := w.Mark()
		for _, op := range e.ops {
			w.Uvarint(uint64(op.Kind))
			w.Str(op.Ref)
			w.Str(op.Value)
			w.Str(op.Activity)
			w.Str(op.Fragment)
			w.Str(op.Container)
		}
		device.EncodeSnapshotTo(w, e.snap)
		w.InsertUvarint(mark, uint64(w.Mark()-mark))
	}
	return w.Bytes()
}

// indexPack walks a pack payload and records, per entry, the routing key and
// the offset of its framed body — no ops or snapshots are decoded. The frame
// lengths must tile the payload exactly, so truncation or trailing garbage
// (possible only past the container checksum) fails the whole pack and the
// caller treats it as every-prefix-missing. The returned reader is retained
// for decodePendingLocked to seek into. The stored hash is merely a routing
// index: nothing is ever served until an entry's decoded ops compare equal
// to the requested prefix, so a payload whose hash and ops disagree can
// never produce a wrong serve — at worst it reads as a miss.
func indexPack(data []byte, fp string, autoDismiss bool) (*binc.Reader, map[memoKey]int, error) {
	r, err := binc.NewReader(data)
	if err != nil {
		return nil, nil, err
	}
	count := r.Int()
	pending := make(map[memoKey]int, count)
	for i := 0; i < count && r.Err() == nil; i++ {
		h := r.Uvarint()
		n := r.Int()
		bodyLen := r.Int()
		off := r.Pos()
		r.Skip(bodyLen)
		key := memoKey{fp: fp, autoDismiss: autoDismiss, n: n, hash: h}
		if _, dup := pending[key]; !dup && r.Err() == nil {
			pending[key] = off
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if err := r.Done(); err != nil {
		return nil, nil, err
	}
	return r, pending, nil
}

func opsEqual(a, b []robotium.Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FNV-64a, chained over op fields with separators so field boundaries and
// prefix boundaries cannot alias.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashOp(h uint64, op robotium.Op) uint64 {
	h ^= uint64(op.Kind)
	h *= fnvPrime
	h = hashField(h, op.Ref)
	h = hashField(h, op.Value)
	h = hashField(h, op.Activity)
	h = hashField(h, op.Fragment)
	h = hashField(h, op.Container)
	return h
}

func hashField(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= 0xff // field separator
	h *= fnvPrime
	return h
}
