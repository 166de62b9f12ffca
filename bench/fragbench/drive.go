package main

// This file holds every call fragbench makes into the program. Each workload
// mirrors CLI invocations with that CLI's defaults at this commit. A change
// that removes a knob or changes a CLI default edits this file alone, so
// that a workload keeps meaning "what the CLI does by default".
//
// No timed op creates a file. On the reference host, creating one inode
// costs 85-380 us of kernel time and that cost drifts tenfold within
// minutes, which swamped every op that wrote a store entry. So the first
// set-up fills each workload's store DIR with a cold run, timed ops read it
// back, a `-cache off` run stands for the computation a cold run does, and
// snapshot packs go to an in-memory store.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/callgraph"
	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/explorer"
	"fragdroid/internal/ir"
	"fragdroid/internal/jdcore"
	"fragdroid/internal/report"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
	"fragdroid/internal/smali"
	"fragdroid/internal/statics"
	"fragdroid/internal/strategy"
)

// The CLI defaults at this commit. FRAGDROID_* environment variables are
// not consulted: every store directory is explicit and -devices auto is
// computed here.
const (
	studySeed      = 1     // fragstudy -seed; Table I ignores it
	familySize     = 10000 // fragstudy -n
	triageMaxCases = 2000  // fragdroid -max-cases
)

// cliParallel is fragstudy -parallel.
func cliParallel() int { return runtime.NumCPU() }

// cliDevices is -devices auto: GOMAXPROCS capped at 8.
func cliDevices() int { return min(runtime.GOMAXPROCS(0), 8) }

// cliMemo is -snapshots on.
func cliMemo() *session.SnapshotMemo { return session.NewSnapshotMemo(0) }

// cliInterp is -interp's default.
func cliInterp() error { return device.SetDefaultInterp("ir") }

// open starts workload def with the CLI's interpreter default in force.
func open(def workloadDef, o options) (workload, error) {
	if err := cliInterp(); err != nil {
		return nil, err
	}
	return def.open(o)
}

// workloads lists the benchmark's workloads. warmup is the number of
// untimed ops of each set-up; tail is the percentile reported as
// op_cpu_ms_tail, fixed from the op count a run reaches (see
// tailPercentile) so that a faster commit cannot change which percentile
// it is judged by. Triage reaches p99 by that rule, but its p99 did not
// repeat: over eight runs its quartiles spread by a fifth of the median.
var workloads = []workloadDef{
	{name: "table1", warmup: 5, tail: 90, open: newTable1},
	{name: "study", warmup: 5, tail: 90, open: newStudy},
	{name: "triage", warmup: 200, tail: 90, open: newTriage},
	{name: "family", warmup: 1, tail: 50, open: newFamily},
}

// probeSample is how many apps of a study or family op get probed.
const probeSample = 16

// rendered receives the length of every report a CLI would print, so the
// rendering stays part of the measured op.
var rendered int

func render(out ...string) {
	for _, s := range out {
		rendered += len(s)
	}
}

// storeDir is the DIR of a workload's `-cache DIR` runs, shared by every
// set-up of a run. fill runs the cold invocation that fills it, the first
// time only.
func storeDir(o options, fill func(dir string) error) (string, error) {
	dir := filepath.Join(o.dir, "store")
	if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
		return dir, err
	}
	return dir, fill(dir)
}

// packSink stands in for the store behind the snapshot memo: it takes each
// encoded pack and drops it, and misses every load, as the store does for
// an archive no run has seen.
type packSink struct{ saves, bytes int }

func (s *packSink) LoadSnapshot(string) ([]byte, bool) { return nil, false }

func (s *packSink) SaveSnapshot(_ string, payload []byte) error {
	s.saves++
	s.bytes += len(payload)
	return nil
}

// table1 is `fragstudy -table1 -table2 -cache off`, the whole evaluation
// computed in memory, then `fragstudy -table1 -table2 -cache DIR` against a
// DIR a cold run filled, every artifact and snapshot pack read back.
type table1 struct {
	store string
	rows  []corpus.PaperRow
	evs   []*report.Evaluation
	memos []*session.SnapshotMemo
}

func newTable1(o options) (workload, error) {
	w := &table1{rows: corpus.PaperRows()}
	var err error
	w.store, err = storeDir(o, func(dir string) error {
		if err := w.invoke(dir, cliParallel()); err != nil {
			return err
		}
		return w.finish(-1, true)
	})
	return w, err
}

func (w *table1) prepare(int) error { return nil }

func (w *table1) run(_ int, serial bool) (int, error) {
	parallel := cliParallel()
	if serial {
		parallel = 1
	}
	for _, dir := range []string{"", w.store} {
		if err := w.invoke(dir, parallel); err != nil {
			return 0, err
		}
	}
	return 2 * len(w.rows), nil
}

// invoke is one `fragstudy -table1 -table2 -cache DIR`; an empty dir is
// -cache off.
func (w *table1) invoke(dir string, parallel int) error {
	cache, err := artifact.NewPersistentCache(dir)
	if err != nil {
		return err
	}
	cfg := report.DefaultEvalConfig()
	cfg.Strategy = "explorer"
	cfg.Seed = studySeed
	cfg.Parallel = parallel
	cfg.Cache = cache
	cfg.Snapshots = cliMemo()
	cfg.Devices = cliDevices()
	cfg.PersistSnapshots = true
	ev, err := report.RunEvaluation(cfg)
	if err != nil {
		return err
	}
	render(report.RenderTable1(ev.BuildTable1()), report.RenderTable2(ev.BuildTable2()))
	w.evs = append(w.evs, ev)
	w.memos = append(w.memos, cfg.Snapshots)
	return nil
}

func (w *table1) traced(_ int, tr *tracer) error {
	before, err := usage(w.store)
	if err != nil {
		return err
	}
	tr.beginOp()
	probes := make([]probeIn, len(w.rows))
	for _, dir := range []string{"", w.store} {
		cache, err := artifact.NewPersistentCache(dir)
		if err != nil {
			return err
		}
		memo := cliMemo()
		if st := cache.Store(); st != nil {
			memo.AttachStore(st)
		}
		ecfg := report.DefaultEvalConfig().Explorer
		ecfg.Snapshots = memo
		ecfg.Devices = cliDevices()
		results := make([]report.AppResult, len(w.rows))
		for a, row := range w.rows {
			var spec *corpus.AppSpec
			var app *apk.App
			var ex *statics.Extraction
			var res *explorer.Result
			tr.do("corpus.spec", a, func() error { spec = corpus.PaperSpec(row); return nil })
			if err := tr.do("artifact.app", a, func() (err error) { app, err = cache.App(spec); return err }); err != nil {
				return err
			}
			if err := tr.do("artifact.extraction", a, func() (err error) { ex, err = cache.Extraction(spec); return err }); err != nil {
				return err
			}
			if err := tr.do("explorer.explore", a, func() (err error) { res, err = explorer.ExploreExtracted(ex, ecfg); return err }); err != nil {
				return err
			}
			results[a] = report.AppResult{Row: row, App: app, Result: res, Outcome: strategy.FromExplorer(res)}
			addSession(tr, a, res)
			if dir == "" {
				probes[a] = probeIn{a: a, spec: spec, app: app, ex: ex, res: res}
			}
		}
		if err := tr.do("session.flush", -1, memo.Flush); err != nil {
			return err
		}
		ev := &report.Evaluation{Strategy: "explorer", Apps: results}
		tr.do("report.fold", -1, func() error {
			render(report.RenderTable1(ev.BuildTable1()), report.RenderTable2(ev.BuildTable2()))
			return nil
		})
		addCacheStats(tr, cache.Stats())
		addPackWrites(tr, memo)
		w.evs = append(w.evs, ev)
		w.memos = append(w.memos, memo)
	}
	for _, in := range probes {
		if err := probe(tr, in, "corpus.spec", "artifact.app", "artifact.extraction",
			"explorer.explore", "session.flush", "report.fold"); err != nil {
			return err
		}
	}
	tr.endOp(len(w.rows))
	tr.add("report.max_live", 0, float64(len(w.rows)))
	return addWritten(tr, w.store, before)
}

func (w *table1) finish(_ int, release bool) error {
	var errs []error
	for k, ev := range w.evs {
		if err := checkTable1(ev); err != nil {
			errs = append(errs, fmt.Errorf("table1 run %d: %w", k, err))
		}
		if release {
			for _, ar := range ev.Apps {
				// The run's final flush left every pack clean, so this
				// writes nothing; it only drops what the memo pinned.
				_ = w.memos[k].ReleaseApp(ar.App)
			}
		}
	}
	w.evs, w.memos = nil, nil
	return errors.Join(errs...)
}

// checkTable1 holds a run to the paper's headline numbers.
func checkTable1(ev *report.Evaluation) error {
	act, frag, _ := ev.BuildTable1().Averages()
	st := ev.BuildTable2().ComputeStats()
	got := fmt.Sprintf("%.2f/%.2f %d APIs/%d invocations", act, frag, st.DistinctAPIs, st.TotalInvocations)
	if want := "71.95/65.86 46 APIs/269 invocations"; got != want {
		return fmt.Errorf("got %s, want %s", got, want)
	}
	return nil
}

func (w *table1) verify() (int, error) { return 0, nil }

// study is `fragstudy -cache off -seed S`, the 217-app study built in
// memory, then `fragstudy -cache DIR -seed S` against a DIR a cold run
// filled.
type study struct {
	seed  int64
	store string
	res   []*report.StudyResult
	first *report.StudyResult
	ops   int
}

func newStudy(o options) (workload, error) {
	w := &study{seed: o.seed}
	var err error
	w.store, err = storeDir(o, func(dir string) error {
		if err := w.invoke(dir, cliParallel()); err != nil {
			return err
		}
		return w.finish(-1, true)
	})
	return w, err
}

func (w *study) prepare(int) error { return nil }

func (w *study) run(_ int, serial bool) (int, error) {
	parallel := cliParallel()
	if serial {
		parallel = 1
	}
	for _, dir := range []string{"", w.store} {
		if err := w.invoke(dir, parallel); err != nil {
			return 0, err
		}
	}
	return 2 * corpus.StudySize, nil
}

// invoke is one `fragstudy -cache DIR -seed S`; an empty dir is -cache off.
func (w *study) invoke(dir string, parallel int) error {
	cache, err := artifact.NewPersistentCache(dir)
	if err != nil {
		return err
	}
	res, err := report.RunStudyWith(report.StudyConfig{Seed: w.seed, Parallel: parallel, Cache: cache})
	if err != nil {
		return err
	}
	render(report.RenderStudy(res))
	w.res = append(w.res, res)
	return nil
}

func (w *study) traced(i int, tr *tracer) error {
	before, err := usage(w.store)
	if err != nil {
		return err
	}
	tr.beginOp()
	var probes []probeIn
	pick := sampleSet(w.seed, i, corpus.StudySize)
	for _, dir := range []string{"", w.store} {
		cache, err := artifact.NewPersistentCache(dir)
		if err != nil {
			return err
		}
		var specs []*corpus.AppSpec
		tr.do("corpus.spec", -1, func() error { specs = corpus.StudySpecs(w.seed); return nil })
		tally := newStudyTally(len(specs))
		for a, spec := range specs {
			var app *apk.App
			err := tr.do("artifact.app", a, func() (err error) { app, err = cache.App(spec); return err })
			if errors.Is(err, apk.ErrPacked) {
				tally.add(spec.Package, true, false)
				continue
			}
			if err != nil {
				return err
			}
			var uses bool
			tr.do("report.scan", a, func() error { uses = usesFragments(app); return nil })
			tally.add(spec.Package, false, uses)
			// Probe the in-memory run's apps: executing an app from the
			// store would write its compiled program back into the store.
			if dir == "" && pick[a] {
				probes = append(probes, probeIn{a: a, spec: spec, app: app})
			}
		}
		var res *report.StudyResult
		tr.do("report.fold", -1, func() error {
			res = tally.finish()
			render(report.RenderStudy(res))
			return nil
		})
		addCacheStats(tr, cache.Stats())
		w.res = append(w.res, res)
	}
	for _, in := range probes {
		if err := probe(tr, in, "corpus.spec", "artifact.app", "report.scan", "report.fold"); err != nil {
			return err
		}
	}
	tr.endOp(corpus.StudySize)
	tr.add("report.max_live", 0, corpus.StudySize)
	tr.add("session.pack_writes", -1, 0)
	return addWritten(tr, w.store, before)
}

func (w *study) finish(int, bool) error {
	var errs []error
	for k, res := range w.res {
		w.ops++
		if w.first == nil {
			w.first = res
		} else if !reflect.DeepEqual(res, w.first) {
			errs = append(errs, fmt.Errorf("study run %d differs from the first run: %+v", k, res))
		}
	}
	w.res = nil
	return errors.Join(errs...)
}

// verify holds the first run, which every later run equalled, to an
// in-memory sequential reference, and at seed 1 to the paper's share.
func (w *study) verify() (int, error) {
	ref, err := report.RunStudyWith(report.StudyConfig{Seed: w.seed, Parallel: 1, Cache: artifact.NewCache()})
	if err != nil {
		return 0, err
	}
	if w.first == nil || !reflect.DeepEqual(ref, w.first) {
		return w.ops, fmt.Errorf("study result %+v differs from the sequential reference %+v", w.first, ref)
	}
	if share := fmt.Sprintf("%.2f", ref.FragmentSharePct()); w.seed == 1 && share != "91.30" {
		return w.ops, fmt.Errorf("fragment share %s%%, want 91.30%%", share)
	}
	return 0, nil
}

// triage is `fragdroid -app X.sapk -cache DIR` over archives no run has
// seen: members of the generated family in index order. Their snapshot
// packs go to a packSink.
type triage struct {
	fam   *corpus.Family
	store string
	packs *packSink

	spec *corpus.AppSpec
	data []byte

	packed bool
	app    *apk.App
	res    *explorer.Result
	memo   *session.SnapshotMemo

	// sample is a seeded reservoir of the analyzed archives, which verify
	// re-runs; it keeps the run's memory flat however many ops it makes.
	// last is the latest analysis, which a repeat of the same op must
	// equal: a traced run analyzes each archive three times.
	rng    *rand.Rand
	seen   int
	sample []triageOutcome
	last   triageOutcome
}

// triageOutcome is the digest of one archive's analysis.
type triageOutcome struct {
	i      int
	digest [sha256.Size]byte
}

func newTriage(o options) (workload, error) {
	return &triage{
		fam:   corpus.NewFamily(1<<30, o.seed),
		store: filepath.Join(o.dir, "store"),
		packs: &packSink{},
		rng:   rand.New(rand.NewSource(o.seed)),
		last:  triageOutcome{i: -1},
	}, nil
}

// prepare generates op i's archive bytes, which the op then parses.
func (w *triage) prepare(i int) error {
	w.spec = w.fam.At(i)
	arch, err := corpus.BuildArchive(w.spec)
	if err != nil {
		return err
	}
	w.data = arch.Bytes()
	return nil
}

func triageConfig(memo *session.SnapshotMemo) explorer.Config {
	cfg := explorer.DefaultConfig()
	cfg.MaxTestCases = triageMaxCases
	cfg.Snapshots = memo
	cfg.Devices = cliDevices()
	return cfg
}

// run analyzes one app, so its serial form is the same op. fragdroid opens
// its store before it looks at the archive, which then bypasses the store.
func (w *triage) run(int, bool) (int, error) {
	if _, err := artifact.NewPersistentCache(w.store); err != nil {
		return 0, err
	}
	app, err := apk.LoadBytes(w.data)
	if errors.Is(err, apk.ErrPacked) {
		w.packed = true
		return 1, nil
	}
	if err != nil {
		return 0, err
	}
	memo := cliMemo()
	memo.AttachStore(w.packs)
	w.app, w.memo = app, memo
	ex, err := statics.Extract(app)
	if err != nil {
		return 0, err
	}
	if w.res, err = explorer.ExploreExtracted(ex, triageConfig(memo)); err != nil {
		return 0, err
	}
	return 1, memo.Flush()
}

func (w *triage) traced(i int, tr *tracer) error {
	saves, bytes := w.packs.saves, w.packs.bytes
	tr.beginOp()
	if _, err := artifact.NewPersistentCache(w.store); err != nil {
		return err
	}
	var arch *apk.Archive
	if err := tr.do("apk.parse_archive", 0, func() (err error) { arch, err = apk.ParseArchive(w.data); return err }); err != nil {
		return err
	}
	var app *apk.App
	err := tr.do("apk.load", 0, func() (err error) { app, err = apk.Load(arch); return err })
	if errors.Is(err, apk.ErrPacked) {
		w.packed = true
		tr.endOp(1)
		return nil
	}
	if err != nil {
		return err
	}
	memo := cliMemo()
	memo.AttachStore(w.packs)
	w.app, w.memo = app, memo
	var ex *statics.Extraction
	if err := tr.do("statics.extract", 0, func() (err error) { ex, err = statics.Extract(app); return err }); err != nil {
		return err
	}
	if err := tr.do("explorer.explore", 0, func() (err error) { w.res, err = explorer.ExploreExtracted(ex, triageConfig(memo)); return err }); err != nil {
		return err
	}
	if err := tr.do("session.flush", 0, memo.Flush); err != nil {
		return err
	}
	addSession(tr, 0, w.res)
	addPackWrites(tr, memo)
	in := probeIn{a: 0, spec: w.spec, app: app, ex: ex, res: w.res,
		respec: func() *corpus.AppSpec { return w.fam.At(i) }}
	if err := probe(tr, in, "apk.parse_archive", "apk.load", "statics.extract",
		"explorer.explore", "session.flush"); err != nil {
		return err
	}
	tr.endOp(1)
	tr.add("report.max_live", 0, 1)
	addCacheStats(tr, artifact.Stats{})
	tr.add("artifact.files_written", -1, float64(w.packs.saves-saves))
	tr.add("artifact.bytes_written", -1, float64(w.packs.bytes-bytes))
	return nil
}

func (w *triage) finish(i int, release bool) error {
	defer func() { w.packed, w.app, w.res, w.memo = false, nil, nil, nil }()
	if w.packed != w.spec.Packed {
		return fmt.Errorf("archive %d: refused as packed = %t, spec packed = %t", i, w.packed, w.spec.Packed)
	}
	if w.packed {
		return nil
	}
	out := triageOutcome{i: i, digest: outcomeDigest(w.res)}
	if w.last.i == i {
		if w.last.digest != out.digest {
			return fmt.Errorf("archive %d: outcome differs between two analyses", i)
		}
	} else {
		w.keep(out)
	}
	w.last = out
	if release {
		// The op flushed its pack; this only drops what the memo pinned.
		_ = w.memo.ReleaseApp(w.app)
	}
	return nil
}

// triageSample is how many analyzed archives verify re-runs.
const triageSample = 32

// keep adds an analysis to the reservoir: every analyzed archive ends up
// in the sample with the same chance.
func (w *triage) keep(out triageOutcome) {
	w.seen++
	if len(w.sample) < triageSample {
		w.sample = append(w.sample, out)
	} else if j := w.rng.Intn(w.seen); j < triageSample {
		w.sample[j] = out
	}
}

// verify re-runs the sampled archives on the slowest, simplest path: the
// in-memory build, no memo, one device and the classic interpreter.
// Visited activities and fragments and the sensitive relations must match
// what the timed ops found.
func (w *triage) verify() (int, error) {
	if err := device.SetDefaultInterp("classic"); err != nil {
		return 0, err
	}
	defer cliInterp()
	wrong := 0
	for _, out := range w.sample {
		i := out.i
		app, err := corpus.BuildApp(w.fam.At(i))
		if err != nil {
			return wrong, err
		}
		ex, err := statics.Extract(app)
		if err != nil {
			return wrong, err
		}
		cfg := explorer.DefaultConfig()
		cfg.MaxTestCases = triageMaxCases
		cfg.Devices = 1
		res, err := explorer.ExploreExtracted(ex, cfg)
		if err != nil {
			return wrong, err
		}
		if outcomeDigest(res) != out.digest {
			wrong++
			fmt.Fprintf(os.Stderr, "triage: archive %d: outcome differs from the reference run\n", i)
		}
	}
	return wrong, nil
}

// outcomeDigest hashes what triage reports about an app: the visited
// activities and fragments and every sensitive relation.
func outcomeDigest(res *explorer.Result) [sha256.Size]byte {
	var b strings.Builder
	fmt.Fprintln(&b, res.Extraction.App.Manifest.Package)
	fmt.Fprintln(&b, strings.Join(res.VisitedActivities(), ","))
	fmt.Fprintln(&b, strings.Join(res.VisitedFragments(), ","))
	for _, u := range res.Collector.Usages() {
		fmt.Fprintf(&b, "%s %t %t %s\n", u.API, u.ByActivity, u.ByFragment, strings.Join(u.Classes, ","))
	}
	return sha256.Sum256([]byte(b.String()))
}

// family is `fragstudy -corpus family -n 10000 -stream -cache off -seed S`.
type family struct {
	seed    int64
	n       int
	res     *report.StudyResult
	first   *report.StudyResult
	ops     int
	maxLive int
}

func newFamily(o options) (workload, error) {
	n := familySize
	if o.small {
		n = 200
	}
	return &family{seed: o.seed, n: n}, nil
}

func (w *family) prepare(int) error { return nil }

func (w *family) run(_ int, serial bool) (int, error) {
	parallel := cliParallel()
	if serial {
		parallel = 1
	}
	cache, err := artifact.NewPersistentCache("")
	if err != nil {
		return 0, err
	}
	res, st, err := report.RunStudyStreamed(report.StudyConfig{
		Seed: w.seed, Parallel: parallel, Cache: cache,
		Source: corpus.NewFamily(w.n, w.seed), Stream: true,
	})
	if err != nil {
		return 0, err
	}
	render(report.RenderStudy(res), report.RenderStreamStats(st))
	w.res = res
	if !serial {
		w.maxLive = st.MaxLive
	}
	return w.n, nil
}

func (w *family) traced(i int, tr *tracer) error {
	tr.beginOp()
	cache, err := artifact.NewPersistentCache("")
	if err != nil {
		return err
	}
	fam := corpus.NewFamily(w.n, w.seed)
	tally := newStudyTally(w.n)
	pick := sampleSet(w.seed, i, w.n)
	var probes []probeIn
	for a := 0; a < w.n; a++ {
		var spec *corpus.AppSpec
		var app *apk.App
		tr.do("corpus.spec", a, func() error { spec = fam.At(a); return nil })
		err := tr.do("artifact.app", a, func() (err error) { app, err = cache.App(spec); return err })
		packed := errors.Is(err, apk.ErrPacked)
		if err != nil && !packed {
			return err
		}
		uses := false
		if !packed {
			tr.do("report.scan", a, func() error { uses = usesFragments(app); return nil })
			if pick[a] {
				probes = append(probes, probeIn{a: a, spec: spec, app: app})
			}
		}
		tr.do("report.fold", a, func() error {
			tally.add(spec.Package, packed, uses)
			cache.Evict(spec)
			return nil
		})
	}
	tr.do("report.fold", -1, func() error {
		w.res = tally.finish()
		render(report.RenderStudy(w.res))
		return nil
	})
	for _, in := range probes {
		if err := probe(tr, in, "corpus.spec", "artifact.app", "report.scan", "report.fold"); err != nil {
			return err
		}
	}
	tr.endOp(w.n)
	addCacheStats(tr, cache.Stats())
	tr.add("report.max_live", 0, float64(w.maxLive))
	tr.add("session.pack_writes", -1, 0)
	tr.add("artifact.files_written", -1, 0)
	tr.add("artifact.bytes_written", -1, 0)
	return nil
}

func (w *family) finish(int, bool) error {
	res := w.res
	w.res = nil
	w.ops++
	if w.first == nil {
		w.first = res
		return nil
	}
	if !reflect.DeepEqual(res, w.first) {
		return fmt.Errorf("family pass differs from the first pass: %+v", res)
	}
	return nil
}

// verify holds the first pass, which every later pass equalled, to a
// reference streamed with a window of one.
func (w *family) verify() (int, error) {
	ref, _, err := report.RunStudyStreamed(report.StudyConfig{
		Seed: w.seed, Parallel: 1, Cache: artifact.NewCache(),
		Source: corpus.NewFamily(w.n, w.seed), Stream: true, Window: 1,
	})
	if err != nil {
		return 0, err
	}
	if w.first == nil || !reflect.DeepEqual(ref, w.first) {
		return w.ops, fmt.Errorf("family result %+v differs from the window-1 reference %+v", w.first, ref)
	}
	return 0, nil
}

// usesFragments is the study's scan, as report calls it.
func usesFragments(app *apk.App) bool { return len(app.Program.FragmentClasses()) > 0 }

// studyTally mirrors the study fold in report, for the traced ops, which
// make the fold's per-app calls themselves. Checking its result against
// the untraced runs keeps the mirror honest.
type studyTally struct {
	res  *report.StudyResult
	cats map[string]*report.CategoryStat
}

func newStudyTally(total int) *studyTally {
	return &studyTally{res: &report.StudyResult{Total: total}, cats: make(map[string]*report.CategoryStat)}
}

func (f *studyTally) add(pkg string, packed, fragments bool) {
	cat := "unknown"
	if parts := strings.Split(pkg, "."); len(parts) >= 3 {
		cat = parts[1]
	}
	cs := f.cats[cat]
	if cs == nil {
		cs = &report.CategoryStat{Category: cat}
		f.cats[cat] = cs
	}
	if packed {
		f.res.Packed++
		return
	}
	f.res.Analyzable++
	cs.Apps++
	if fragments {
		f.res.WithFragments++
		cs.WithFragments++
	}
}

func (f *studyTally) finish() *report.StudyResult {
	for _, cs := range f.cats {
		if cs.Apps > 0 {
			f.res.ByCategory = append(f.res.ByCategory, *cs)
		}
	}
	sort.Slice(f.res.ByCategory, func(i, j int) bool {
		a, b := f.res.ByCategory[i], f.res.ByCategory[j]
		if a.Apps != b.Apps {
			return a.Apps > b.Apps
		}
		return a.Category < b.Category
	})
	return f.res
}

// sampleSet picks probeSample of n app indexes for op i's probes.
func sampleSet(seed int64, i, n int) map[int]bool {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
	pick := make(map[int]bool, probeSample)
	for _, a := range rng.Perm(n)[:min(probeSample, n)] {
		pick[a] = true
	}
	return pick
}

// probeIn is one app of a traced op, with whatever the op already made.
type probeIn struct {
	a      int
	spec   *corpus.AppSpec
	respec func() *corpus.AppSpec // regenerates spec, when the op made it untimed
	app    *apk.App               // nil: the probe's own build is used
	ex     *statics.Extraction    // nil: the probe's own extraction is used
	res    *explorer.Result       // nil: the probe explores
}

// probe re-runs, standalone and in attr spans, every layer the op called
// only from inside another call or not at all, so that every layer has a
// time on every workload. natural names the layers the op timed itself.
func probe(tr *tracer, in probeIn, natural ...string) error {
	skip := make(map[string]bool, len(natural))
	for _, n := range natural {
		skip[n] = true
	}
	step := func(layer string, fn func() error) error {
		if skip[layer] {
			return nil
		}
		return tr.attr(layer, in.a, fn)
	}
	tr.begin(probeSpan, in.a, true)
	defer tr.end()

	if in.respec != nil {
		step("corpus.spec", func() error { in.respec(); return nil })
	}
	var built *apk.App
	if err := step("corpus.build", func() (err error) { built, err = corpus.BuildApp(in.spec); return err }); err != nil {
		return err
	}
	app := in.app
	if app == nil {
		app = built
	}
	var enc []byte
	if err := step("apk.encode", func() (err error) { enc, err = apk.EncodeApp(app); return err }); err != nil {
		return err
	}
	if err := step("apk.decode", func() error { _, err := apk.DecodeApp(enc); return err }); err != nil {
		return err
	}
	arch, err := app.Pack()
	if err != nil {
		return err
	}
	data := arch.Bytes()
	if err := step("apk.parse_archive", func() error { _, err := apk.ParseArchive(data); return err }); err != nil {
		return err
	}
	if err := step("apk.load", func() error { _, err := apk.Load(arch); return err }); err != nil {
		return err
	}
	files := make(map[string][]byte)
	for _, p := range arch.WithPrefix(apk.SmaliDir) {
		files[p], _ = arch.Get(p)
	}
	if err := step("smali.parse", func() error { _, err := smali.ParseProgram(files); return err }); err != nil {
		return err
	}
	step("report.scan", func() error { usesFragments(app); return nil })
	ex := in.ex
	if err := step("statics.extract", func() error {
		fresh, err := statics.Extract(app)
		if ex == nil {
			ex = fresh
		}
		return err
	}); err != nil {
		return err
	}
	if ex == nil {
		return fmt.Errorf("probe: app %d has no extraction", in.a)
	}
	c := ex.Model.Count()
	tr.add("aftm.edges", in.a, float64(c.E1+c.E2+c.E3))
	var java *jdcore.Program
	step("jdcore.decompile", func() error { java = jdcore.Decompile(app.Program); return nil })
	var g *callgraph.Graph
	step("callgraph.build", func() error { g = callgraph.Build(app, java); return nil })
	step("callgraph.reach", func() error {
		g.Reach(g.LauncherRoots())
		g.Reach(g.ForcedRoots(ex.EffectiveActivities))
		return nil
	})
	step("ir.compile", func() error { ir.Compile(app); return nil })
	var exEnc []byte
	if err := step("statics.encode", func() (err error) { exEnc, err = statics.EncodeExtraction(ex); return err }); err != nil {
		return err
	}
	if err := step("statics.decode", func() error { _, err := statics.DecodeExtraction(exEnc, app); return err }); err != nil {
		return err
	}
	cache := artifact.NewCache()
	if err := step("artifact.app", func() error { _, err := cache.App(in.spec); return err }); err != nil {
		return err
	}
	if err := step("artifact.extraction", func() error { _, err := cache.Extraction(in.spec); return err }); err != nil {
		return err
	}

	res := in.res
	if res == nil {
		memo := cliMemo()
		memo.AttachStore(&packSink{})
		if err := step("explorer.explore", func() (err error) { res, err = explorer.ExploreExtracted(ex, triageConfig(memo)); return err }); err != nil {
			return err
		}
		if err := step("session.flush", memo.Flush); err != nil {
			return err
		}
		addSession(tr, in.a, res)
		_ = memo.ReleaseApp(app) // just flushed: nothing left to write
	}
	step("report.fold", func() error { render(report.RenderAppReport(app.Manifest.Package, res)); return nil })
	return replay(tr, in.a, app, res)
}

// replay re-executes every visit route the exploration found on a fresh
// device, then times one Snapshot at the route's end and its Restore onto
// another fresh device: the per-step against the per-restore cost.
func replay(tr *tracer, a int, app *apk.App, res *explorer.Result) error {
	visits := make([]explorer.Visit, 0, len(res.Visits))
	for _, v := range res.Visits {
		visits = append(visits, v)
	}
	sort.Slice(visits, func(i, j int) bool { return visits[i].Node.String() < visits[j].Node.String() })
	for _, v := range visits {
		d := device.New(app, device.Options{})
		tr.attr("device.replay", a, func() error {
			robotium.Run(d, v.Route, robotium.Options{AutoDismiss: true})
			return nil
		})
		tr.add("device.replay_steps", a, float64(d.ExecutedSteps()))
		var snap *device.Snapshot
		tr.attr("device.snapshot", a, func() error { snap = d.Snapshot(); return nil })
		fresh := device.New(app, device.Options{})
		if err := tr.attr("device.restore", a, func() error { return fresh.Restore(snap) }); err != nil {
			return err
		}
		tr.add("device.routes", a, 1)
	}
	return nil
}

func addSession(tr *tracer, a int, res *explorer.Result) {
	s := res.Stats
	tr.add("session.test_cases", a, float64(s.TestCases))
	tr.add("session.steps", a, float64(s.Steps))
	tr.add("session.executed_steps", a, float64(s.Steps-s.StepsSaved))
	tr.add("session.snapshot_hits", a, float64(s.SnapshotHits))
	tr.add("session.snapshot_restores", a, float64(s.SnapshotRestores))
}

func addCacheStats(tr *tracer, st artifact.Stats) {
	tr.add("artifact.disk_hits", -1, float64(st.DiskHits))
	tr.add("artifact.disk_misses", -1, float64(st.DiskMisses))
	tr.add("artifact.ir_hits", -1, float64(st.IRHits))
	tr.add("artifact.ir_misses", -1, float64(st.IRMisses))
}

func addPackWrites(tr *tracer, memo *session.SnapshotMemo) {
	_, _, writes := memo.DiskStats()
	tr.add("session.pack_writes", -1, float64(writes))
}
