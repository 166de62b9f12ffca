// Package report runs the paper's evaluation experiments on the synthetic
// corpus and renders the resulting tables: Table I (coverage), Table II
// (sensitive operations), the §VII-A fragment-usage study, and the baseline
// comparison behind the §VII-C "traditional approaches miss ≥9.6%" claim.
package report

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/sensitive"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
	"fragdroid/internal/strategy"
)

// EvalConfig tunes a full paper evaluation run.
type EvalConfig struct {
	// Strategy names the exploration strategy driving the per-app runs, from
	// the internal/strategy registry. Empty means "explorer" (FragDroid
	// itself), the only strategy that fills the explorer-specific Result and
	// hence supports Table I, the gap and the ceiling tables; every strategy
	// supports the generic Outcome and the tables derived from it (Table II,
	// run metrics).
	Strategy string
	// Seed feeds randomized strategies' RNGs (monkey, biased); deterministic
	// strategies ignore it.
	Seed int64
	// Explorer is the FragDroid configuration used per app. Its budget,
	// inputs and observer also apply to non-explorer strategies.
	Explorer explorer.Config
	// Parallel runs up to that many apps concurrently (each on its own
	// simulated device). Zero or one means sequential. Results are
	// positionally ordered either way, so all derived tables are identical.
	Parallel int
	// Cache memoizes app builds and static extractions across runs. Nil
	// means the process-wide artifact.Default cache.
	Cache *artifact.Cache
	// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
	Snapshots *session.SnapshotMemo
	// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
	PersistSnapshots bool
	// Deprecated: ignored; one app is always explored on one device. Kept
	// only until the benchmark driver stops setting it.
	Devices int
}

func (cfg EvalConfig) cache() *artifact.Cache {
	if cfg.Cache != nil {
		return cfg.Cache
	}
	return artifact.Default
}

// DefaultEvalConfig uses the full FragDroid feature set with a generous
// test-case budget.
func DefaultEvalConfig() EvalConfig {
	cfg := explorer.DefaultConfig()
	cfg.MaxTestCases = 4000
	return EvalConfig{Explorer: cfg}
}

// AppResult couples one corpus app with its exploration outcome.
type AppResult struct {
	Row corpus.PaperRow
	App *apk.App
	// Result is the explorer-specific outcome; nil for other strategies.
	Result *explorer.Result
	// Outcome is the engine-independent outcome, set for every strategy.
	Outcome *session.Outcome
}

// Evaluation is the outcome of running one strategy over the 15-app corpus.
type Evaluation struct {
	// Strategy is the registry name of the engine that produced the runs.
	Strategy string
	Apps     []AppResult
}

// RunMetrics couples one corpus app with its run's session counters.
type RunMetrics struct {
	Package  string
	Strategy string
	session.Stats
}

// RunMetrics returns the per-app session counters, in corpus order.
func (ev *Evaluation) RunMetrics() []RunMetrics {
	out := make([]RunMetrics, 0, len(ev.Apps))
	for _, ar := range ev.Apps {
		out = append(out, RunMetrics{Package: ar.Row.Package, Strategy: ev.Strategy, Stats: ar.Outcome.Stats})
	}
	return out
}

// TotalStats sums the session counters over the whole corpus.
func (ev *Evaluation) TotalStats() session.Stats {
	var total session.Stats
	for _, ar := range ev.Apps {
		total = total.Add(ar.Outcome.Stats)
	}
	return total
}

// RunEvaluation builds the 15 Table I apps and explores each with the
// configured strategy, cfg.Parallel apps at a time: each worker builds,
// extracts and explores one app straight through. Builds and static
// extractions are memoized through cfg's artifact cache, so repeated runs
// (ablations, benchmarks) only pay for exploration. The result order (and
// hence every derived table) is identical to a sequential run because each
// app's exploration is self-contained and deterministic and each result
// lands in its own slot. Per-app failures are aggregated with errors.Join
// rather than reported first-only.
func RunEvaluation(cfg EvalConfig) (*Evaluation, error) {
	strat := cfg.Strategy
	if strat == "" {
		strat = "explorer"
	}
	if !strategy.Known(strat) {
		return nil, fmt.Errorf("report: unknown strategy %q (known: %s)",
			strat, strings.Join(strategy.Names(), ", "))
	}
	rows := corpus.PaperRows()
	cache := cfg.cache()
	results := make([]AppResult, len(rows))
	errs := make([]error, len(rows))
	forEach(len(rows), cfg.Parallel, defaultWindow(cfg.Parallel), func(i int) {
		results[i], errs[i] = evaluateApp(strat, rows[i], cache, cfg)
	}, func(int) {})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return &Evaluation{Strategy: strat, Apps: results}, nil
}

// evaluateApp builds, extracts and explores one corpus app.
func evaluateApp(strat string, row corpus.PaperRow, cache *artifact.Cache, cfg EvalConfig) (AppResult, error) {
	spec := corpus.PaperSpec(row)
	app, err := cache.App(spec)
	if err != nil {
		return AppResult{}, fmt.Errorf("report: build %s: %w", row.Package, err)
	}
	ex, err := cache.Extraction(spec)
	if err != nil {
		return AppResult{}, fmt.Errorf("report: extract %s: %w", row.Package, err)
	}
	if strat == "explorer" {
		res, err := explorer.ExploreExtracted(ex, cfg.Explorer)
		if err != nil {
			return AppResult{}, fmt.Errorf("report: explore %s: %w", row.Package, err)
		}
		return AppResult{Row: row, App: app, Result: res, Outcome: strategy.FromExplorer(res)}, nil
	}
	out, err := strategy.Run(strat, ex, strategy.Options{
		Budget:   cfg.Explorer.MaxTestCases,
		Seed:     cfg.Seed,
		Inputs:   cfg.Explorer.Inputs,
		Observer: cfg.Explorer.Observer,
		Curve:    true,
	})
	if err != nil {
		return AppResult{}, fmt.Errorf("report: %s on %s: %w", strat, row.Package, err)
	}
	return AppResult{Row: row, App: app, Outcome: out}, nil
}

// Table1Row is one measured row of Table I.
type Table1Row struct {
	Package   string
	Downloads string
	// Measured Visited/Sum triples.
	VisA, SumA       int
	VisF, SumF       int
	VisFiVA, SumFiVA int
	// Paper holds the published numbers for side-by-side comparison.
	Paper corpus.PaperRow
}

func rate(vis, sum int) float64 {
	if sum == 0 {
		return 0
	}
	return 100 * float64(vis) / float64(sum)
}

// RateA, RateF and RateFiVA return the measured percentage rates.
func (r Table1Row) RateA() float64    { return rate(r.VisA, r.SumA) }
func (r Table1Row) RateF() float64    { return rate(r.VisF, r.SumF) }
func (r Table1Row) RateFiVA() float64 { return rate(r.VisFiVA, r.SumFiVA) }

// Table1 is the measured coverage table.
type Table1 struct {
	Rows []Table1Row
}

// BuildTable1 derives Table I from an evaluation.
func (ev *Evaluation) BuildTable1() *Table1 {
	t := &Table1{}
	for _, ar := range ev.Apps {
		fivaVis, fivaSum := ar.Result.FragmentsInVisitedActivities()
		t.Rows = append(t.Rows, Table1Row{
			Package:   ar.Row.Package,
			Downloads: ar.Row.Downloads,
			VisA:      len(ar.Result.VisitedActivities()),
			SumA:      len(ar.Result.Extraction.EffectiveActivities),
			VisF:      len(ar.Result.VisitedFragments()),
			SumF:      len(ar.Result.Extraction.EffectiveFragments),
			VisFiVA:   fivaVis,
			SumFiVA:   fivaSum,
			Paper:     ar.Row,
		})
	}
	return t
}

// Averages returns the mean per-app coverage rates — the aggregation the
// paper reports as "66% for Fragments and 71.94% for Activities".
func (t *Table1) Averages() (actPct, fragPct, fivaPct float64) {
	if len(t.Rows) == 0 {
		return 0, 0, 0
	}
	for _, r := range t.Rows {
		actPct += r.RateA()
		fragPct += r.RateF()
		fivaPct += r.RateFiVA()
	}
	n := float64(len(t.Rows))
	return actPct / n, fragPct / n, fivaPct / n
}

// BuildTable2 derives the sensitive-operations matrix from an evaluation.
// It reads the generic outcome, so it works for every strategy.
func (ev *Evaluation) BuildTable2() *sensitive.Matrix {
	return sensitive.NewMatrix(ev.collectors())
}

// CategoryStat is the per-category breakdown of the study (the paper lists
// its dataset by Google Play category: Tools 21 apps, Entertainment 21, ...).
type CategoryStat struct {
	Category      string
	Apps          int
	WithFragments int
}

// StudyResult is the outcome of the §VII-A fragment-usage study.
type StudyResult struct {
	Total         int
	Packed        int
	Analyzable    int
	WithFragments int
	// ByCategory holds the per-category breakdown, sorted by app count
	// descending then name.
	ByCategory []CategoryStat
}

// FragmentSharePct is the headline "91% of apps use Fragments" number.
func (s StudyResult) FragmentSharePct() float64 {
	if s.Analyzable == 0 {
		return 0
	}
	return 100 * float64(s.WithFragments) / float64(s.Analyzable)
}

// StudyConfig tunes a fragment-usage study run.
type StudyConfig struct {
	// Seed selects the deterministic 217-app dataset variant.
	Seed int64
	// Parallel analyzes up to that many apps concurrently. Zero or one means
	// sequential; results are identical either way (outcomes are folded in
	// dataset order).
	Parallel int
	// Cache serves the run's app builds and extractions. Nil means
	// artifact.Default. The run fetches each app through it without
	// memoizing it, so runs share artifacts only through the cache's store.
	Cache *artifact.Cache
	// Source optionally overrides the corpus: any random-access spec source —
	// typically corpus.NewFamily for corpus-scale runs — instead of the fixed
	// 217-app corpus.StudySpecs(Seed). A lazy source never materializes a
	// spec slice.
	Source corpus.SpecSource
	// Stream changes nothing: every run releases each app once it has
	// folded, so peak heap is O(Window) however large the corpus.
	//
	// Deprecated: no code reads it. It stays only while bench/fragbench
	// still sets it, and is deleted once that code stops.
	Stream bool
	// Window bounds the apps in flight (admitted, not yet folded); zero
	// derives max(2·Parallel, 4).
	Window int
}

// studyFold accumulates the study aggregate one app at a time, in dataset
// order.
type studyFold struct {
	res  *StudyResult
	cats map[string]*CategoryStat
}

func newStudyFold(total int) *studyFold {
	return &studyFold{
		res:  &StudyResult{Total: total},
		cats: make(map[string]*CategoryStat),
	}
}

// add folds one app's outcome into the aggregate.
func (f *studyFold) add(pkg string, packed, fragments bool) {
	cat := categoryOf(pkg)
	cs := f.cats[cat]
	if cs == nil {
		cs = &CategoryStat{Category: cat}
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

// finish seals the aggregate: the per-category breakdown sorts by app count
// descending then name, so the order is deterministic even though the
// category map is not.
func (f *studyFold) finish() *StudyResult {
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

// RunStudyWith performs the §VII-A study: build each app (packed apps fail
// decompilation, as in the paper) and statically scan the class hierarchy for
// Fragment subclass usage. Apps are scanned cfg.Parallel at a time and folded
// in dataset order, so counts and the ByCategory breakdown match a serial
// run exactly.
func RunStudyWith(cfg StudyConfig) (*StudyResult, error) {
	res, _, err := runStudy(cfg)
	return res, err
}

// runStudy is the one body behind RunStudyWith and RunStudyStreamed. It
// also returns the in-flight high-water mark.
func runStudy(cfg StudyConfig) (*StudyResult, int, error) {
	src := cfg.source()
	cache := cfg.cacheOrDefault()
	fold := newStudyFold(src.Len())
	maxLive, err := foldCorpus(cfg, src, "study build", func(spec *corpus.AppSpec) (bool, error) {
		app, err := cache.FetchApp(spec)
		if err != nil {
			return false, err
		}
		return usesFragments(app), nil
	}, fold.add)
	if err != nil {
		return nil, 0, err
	}
	return fold.finish(), maxLive, nil
}

func (cfg StudyConfig) cacheOrDefault() *artifact.Cache {
	if cfg.Cache != nil {
		return cfg.Cache
	}
	return artifact.Default
}

// window resolves the in-flight bound: an explicit Window wins, else the
// default for Parallel.
func (cfg StudyConfig) window() int {
	if cfg.Window > 0 {
		return cfg.Window
	}
	return defaultWindow(cfg.Parallel)
}

// source resolves the corpus: an explicit Source wins, else the fixed
// 217-app study corpus for Seed.
func (cfg StudyConfig) source() corpus.SpecSource {
	if cfg.Source != nil {
		return cfg.Source
	}
	return corpus.SliceSource(corpus.StudySpecs(cfg.Seed))
}

// categoryOf extracts the study category from a generated package name
// ("com.<category>.appNNN").
func categoryOf(pkg string) string {
	parts := strings.Split(pkg, ".")
	if len(parts) >= 3 {
		return parts[1]
	}
	return "unknown"
}

// usesFragments is the study's scanner: does the decompiled code contain any
// Fragment subclass?
func usesFragments(app *apk.App) bool {
	return app.Program.HasFragmentClass()
}

// ComparisonRow reports one system's aggregate behaviour over the corpus.
type ComparisonRow struct {
	// System is the display name (the paper's terminology); Strategy is the
	// registry name the run was keyed by in internal/strategy.
	System   string
	Strategy string
	// ActivityPct is the mean activity coverage rate.
	ActivityPct float64
	// FragmentPct is the mean fragment coverage rate (0 for tools that
	// cannot credit fragments).
	FragmentPct float64
	// APIs is the number of distinct sensitive APIs observed.
	APIs int
	// FragmentAPIRelations counts fragment-associated invocation relations.
	FragmentAPIRelations int
	// MissedFragmentAPIPct is the share of FragDroid's total invocation
	// relations this system did not observe.
	MissedFragmentAPIPct float64
	// TestCases is the total work spent.
	TestCases int
}

// Comparison is the FragDroid vs Activity-level vs Monkey experiment.
type Comparison struct {
	Rows []ComparisonRow
	// FragDroidStats are the reference aggregates.
	FragDroidStats sensitive.Stats
}

// baselineSystems maps the paper's comparison systems to registry names.
var baselineSystems = []struct{ Strategy, System string }{
	{"activity", "Activity-level MBT"},
	{"monkey", "Monkey"},
}

// RunComparison runs all three systems over the corpus and aggregates. The
// baselines run through the strategy registry, so they are exactly the
// engines `fragstudy -compare` benchmarks.
func RunComparison(cfg EvalConfig, monkeySeed int64, monkeyEvents int) (*Comparison, error) {
	cfg.Strategy = "explorer" // the reference system; baselines run below
	ev, err := RunEvaluation(cfg)
	if err != nil {
		return nil, err
	}
	t1 := ev.BuildTable1()
	fragStats := ev.BuildTable2().ComputeStats()

	fdRelations := relationSet(ev.collectors())
	actA, actF, _ := t1.Averages()

	cmp := &Comparison{FragDroidStats: fragStats}
	cmp.Rows = append(cmp.Rows, ComparisonRow{
		System:               "FragDroid",
		Strategy:             "explorer",
		ActivityPct:          actA,
		FragmentPct:          actF,
		APIs:                 fragStats.DistinctAPIs,
		FragmentAPIRelations: fragStats.FragmentRelations,
		TestCases:            ev.TotalStats().TestCases,
	})

	for _, sys := range baselineSystems {
		row, err := runBaselineSystem(sys.Strategy, sys.System, ev, cfg, monkeySeed, monkeyEvents, fdRelations)
		if err != nil {
			return nil, err
		}
		cmp.Rows = append(cmp.Rows, row)
	}
	return cmp, nil
}

func (ev *Evaluation) collectors() []*sensitive.Collector {
	var cs []*sensitive.Collector
	for _, ar := range ev.Apps {
		cs = append(cs, ar.Outcome.Collector)
	}
	return cs
}

// relationSet flattens collectors into (app, api, kind) relation keys.
func relationSet(cs []*sensitive.Collector) map[string]bool {
	out := make(map[string]bool)
	for _, c := range cs {
		for _, u := range c.Usages() {
			if u.ByActivity {
				out[c.App()+"|"+u.API+"|A"] = true
			}
			if u.ByFragment {
				out[c.App()+"|"+u.API+"|F"] = true
			}
		}
	}
	return out
}

func runBaselineSystem(strat, sys string, ev *Evaluation, cfg EvalConfig, seed int64, events int, fdRelations map[string]bool) (ComparisonRow, error) {
	var collectors []*sensitive.Collector
	var actPctSum float64
	var stats session.Stats
	for _, ar := range ev.Apps {
		opts := strategy.Options{
			Budget:   cfg.Explorer.MaxTestCases,
			Seed:     seed,
			Inputs:   cfg.Explorer.Inputs,
			Observer: cfg.Explorer.Observer,
		}
		if strat == "monkey" {
			opts.Budget = events
		}
		out, err := strategy.Run(strat, ar.Result.Extraction, opts)
		if err != nil {
			return ComparisonRow{}, fmt.Errorf("report: %s on %s: %w", sys, ar.Row.Package, err)
		}
		collectors = append(collectors, out.Collector)
		effective := countEffective(ar.Result.Extraction, out.VisitedActivities)
		actPctSum += rate(effective, len(ar.Result.Extraction.EffectiveActivities))
		stats = stats.Add(out.Stats)
	}
	m := sensitive.NewMatrix(collectors)
	st := m.ComputeStats()
	missed := missedPct(fdRelations, relationSet(collectors))
	return ComparisonRow{
		System:               sys,
		Strategy:             strat,
		ActivityPct:          actPctSum / float64(len(ev.Apps)),
		FragmentPct:          0, // activity-level tools cannot credit fragments
		APIs:                 st.DistinctAPIs,
		FragmentAPIRelations: st.FragmentRelations,
		MissedFragmentAPIPct: missed,
		TestCases:            stats.TestCases,
	}, nil
}

// countEffective counts visited activities that are in the effective set
// (baselines may force-start isolated activities; those don't count).
func countEffective(ex *statics.Extraction, visited []string) int {
	eff := make(map[string]bool, len(ex.EffectiveActivities))
	for _, a := range ex.EffectiveActivities {
		eff[a] = true
	}
	n := 0
	for _, a := range visited {
		if eff[a] {
			n++
		}
	}
	return n
}

// missedPct is the share of FragDroid's invocation relations the other
// system failed to observe.
func missedPct(fragdroid, other map[string]bool) float64 {
	if len(fragdroid) == 0 {
		return 0
	}
	missed := 0
	for rel := range fragdroid {
		if !other[rel] {
			missed++
		}
	}
	return 100 * float64(missed) / float64(len(fragdroid))
}
