package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/sensitive"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
	"fragdroid/internal/strategy"
)

// The strategy bake-off: every named strategy runs over the 15-app corpus at
// the full budget, several seeds apart, and the coverage curve of each run is
// read back at a grid of intermediate budgets. The table answers the question
// the single-system evaluation cannot: not just where each strategy ends up,
// but how fast it gets there and how much the answer wobbles with the seed
// ("Are We There Yet?", PAPERS.md — mean and variance across seeds, coverage
// as a function of budget).

// BakeoffConfig tunes a strategy bake-off run.
type BakeoffConfig struct {
	// Strategies is the ordered list of registry names to compare. Empty
	// means every registered strategy.
	Strategies []string
	// Budget is the full per-run budget (test cases for script strategies,
	// events for the random ones; both bill one test case per unit, so the
	// curves share an x-axis). Zero means 400.
	Budget int
	// Seeds is how many seeds each strategy runs at (BaseSeed, BaseSeed+1,
	// ...). Zero means 3, the floor for a variance worth printing.
	Seeds int
	// BaseSeed is the first seed. Zero means 7.
	BaseSeed int64
	// Parallel bounds concurrent per-app runs inside one strategy×seed pass.
	// Zero or one means sequential; results are identical either way.
	Parallel int
	// Cache memoizes app builds and static extractions. Nil means
	// artifact.Default.
	Cache *artifact.Cache
}

func (cfg BakeoffConfig) withDefaults() BakeoffConfig {
	if len(cfg.Strategies) == 0 {
		cfg.Strategies = strategy.Names()
	}
	if cfg.Budget == 0 {
		cfg.Budget = 400
	}
	if cfg.Seeds == 0 {
		cfg.Seeds = 3
	}
	if cfg.BaseSeed == 0 {
		cfg.BaseSeed = 7
	}
	if cfg.Cache == nil {
		cfg.Cache = artifact.Default
	}
	return cfg
}

// bakeoffGrid is the ascending list of budgets the curves are sampled at:
// the eighth, quarter and half of the full budget, then the budget itself.
func bakeoffGrid(budget int) []int {
	var grid []int
	for _, d := range []int{8, 4, 2, 1} {
		if b := budget / d; b > 0 {
			grid = append(grid, b)
		}
	}
	return grid
}

// BakeoffCell is one strategy's activity coverage at one budget, aggregated
// over seeds: the mean and variance of the per-seed corpus means.
type BakeoffCell struct {
	Budget int `json:"budget"`
	// MeanActPct is the mean (across seeds) of the per-seed mean (across
	// apps) effective-activity coverage rate at this budget.
	MeanActPct float64 `json:"mean_activity_pct"`
	// VarActPct is the population variance of the per-seed means.
	VarActPct float64 `json:"variance"`
}

// BakeoffRow is one strategy's aggregate behaviour over the corpus.
type BakeoffRow struct {
	Strategy string        `json:"strategy"`
	Cells    []BakeoffCell `json:"curve"`
	// FragmentPct is the mean (seeds, then apps) effective-fragment coverage
	// at the full budget. Activity-level strategies score 0 by construction.
	FragmentPct float64 `json:"fragment_pct"`
	// APIs is the number of distinct sensitive APIs observed at the base
	// seed (deterministic strategies observe the same set at every seed).
	APIs int `json:"apis"`
	// TestCases is the total work spent at the base seed.
	TestCases int `json:"test_cases"`
}

// Bakeoff is the full comparison result.
type Bakeoff struct {
	Rows     []BakeoffRow `json:"strategies"`
	Apps     int          `json:"apps"`
	Seeds    int          `json:"seeds"`
	BaseSeed int64        `json:"base_seed"`
	Budget   int          `json:"budget"`
	Grid     []int        `json:"grid"`
}

// JSON renders the bake-off as indented JSON (the BENCH_PR7.json shape).
func (b *Bakeoff) JSON() ([]byte, error) {
	return json.MarshalIndent(b, "", "  ")
}

// coverageAt reads a coverage curve at one budget: the activity count of the
// last sample at or under it (zero before the first sample).
func coverageAt(curve []session.CurvePoint, budget int) int {
	acts := 0
	for _, p := range curve {
		if p.TestCase > budget {
			break
		}
		acts = p.Activities
	}
	return acts
}

// RunBakeoff runs every requested strategy × seed over the corpus and folds
// the curves into the comparison table. One trace library is built up front
// (each target app is excluded from its own matches by the trace strategy
// itself). Every test case replays from launch, so budgets buy the same
// work for every strategy.
func RunBakeoff(cfg BakeoffConfig) (*Bakeoff, error) {
	cfg = cfg.withDefaults()
	for _, name := range cfg.Strategies {
		if !strategy.Known(name) {
			return nil, fmt.Errorf("report: unknown strategy %q (known: %s)",
				name, strings.Join(strategy.Names(), ", "))
		}
	}
	rows := corpus.PaperRows()
	exs := make([]*statics.Extraction, len(rows))
	errs := make([]error, len(rows))
	forEach(len(rows), cfg.Parallel, defaultWindow(cfg.Parallel), func(i int) {
		ex, err := cfg.Cache.Extraction(corpus.PaperSpec(rows[i]))
		if err != nil {
			errs[i] = fmt.Errorf("report: extract %s: %w", rows[i].Package, err)
		}
		exs[i] = ex
	}, func(int) {})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	var lib *strategy.Library
	for _, name := range cfg.Strategies {
		if name == "trace" {
			l, err := strategy.CorpusLibrary("")
			if err != nil {
				return nil, fmt.Errorf("report: trace library: %w", err)
			}
			lib = l
			break
		}
	}

	bo := &Bakeoff{
		Apps:     len(rows),
		Seeds:    cfg.Seeds,
		BaseSeed: cfg.BaseSeed,
		Budget:   cfg.Budget,
		Grid:     bakeoffGrid(cfg.Budget),
	}
	for _, name := range cfg.Strategies {
		row, err := runBakeoffRow(name, cfg, bo.Grid, rows, exs, lib)
		if err != nil {
			return nil, err
		}
		bo.Rows = append(bo.Rows, row)
	}
	return bo, nil
}

// runBakeoffRow runs one strategy at every seed and aggregates the curves
// at each budget of grid.
func runBakeoffRow(name string, cfg BakeoffConfig, grid []int, rows []corpus.PaperRow, exs []*statics.Extraction, lib *strategy.Library) (BakeoffRow, error) {
	// seedMeans[k][g] is seed k's corpus-mean activity coverage at grid[g].
	seedMeans := make([][]float64, cfg.Seeds)
	var fragPctSum float64
	var baseAPIs, baseCases int
	for k := 0; k < cfg.Seeds; k++ {
		outs := make([]*session.Outcome, len(rows))
		errs := make([]error, len(rows))
		forEach(len(rows), cfg.Parallel, defaultWindow(cfg.Parallel), func(i int) {
			out, err := strategy.Run(name, exs[i], strategy.Options{
				Budget:  cfg.Budget,
				Seed:    cfg.BaseSeed + int64(k),
				Curve:   true,
				Library: lib,
			})
			if err != nil {
				errs[i] = fmt.Errorf("report: %s on %s (seed %d): %w",
					name, rows[i].Package, cfg.BaseSeed+int64(k), err)
			}
			outs[i] = out
		}, func(int) {})
		if err := errors.Join(errs...); err != nil {
			return BakeoffRow{}, err
		}

		means := make([]float64, len(grid))
		var collectors []*sensitive.Collector
		var stats session.Stats
		for i, out := range outs {
			denom := len(exs[i].EffectiveActivities)
			for g, b := range grid {
				means[g] += rate(coverageAt(out.Curve, b), denom)
			}
			eff := make(map[string]bool, len(exs[i].EffectiveFragments))
			for _, f := range exs[i].EffectiveFragments {
				eff[f] = true
			}
			nf := 0
			for _, f := range out.VisitedFragments {
				if eff[f] {
					nf++
				}
			}
			fragPctSum += rate(nf, len(exs[i].EffectiveFragments)) / float64(len(rows))
			collectors = append(collectors, out.Collector)
			stats = stats.Add(out.Stats)
		}
		for g := range means {
			means[g] /= float64(len(rows))
		}
		seedMeans[k] = means
		if k == 0 {
			baseAPIs = sensitive.NewMatrix(collectors).ComputeStats().DistinctAPIs
			baseCases = stats.TestCases
		}
	}

	row := BakeoffRow{
		Strategy:    name,
		FragmentPct: fragPctSum / float64(cfg.Seeds),
		APIs:        baseAPIs,
		TestCases:   baseCases,
	}
	for g, b := range grid {
		mean := 0.0
		for k := range seedMeans {
			mean += seedMeans[k][g]
		}
		mean /= float64(cfg.Seeds)
		varsum := 0.0
		for k := range seedMeans {
			d := seedMeans[k][g] - mean
			varsum += d * d
		}
		row.Cells = append(row.Cells, BakeoffCell{
			Budget:     b,
			MeanActPct: mean,
			VarActPct:  varsum / float64(cfg.Seeds),
		})
	}
	return row, nil
}
