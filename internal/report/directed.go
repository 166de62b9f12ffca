package report

import (
	"fmt"
	"strings"

	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/explorer"
	"fragdroid/internal/paths"
	"fragdroid/internal/robotium"
	"fragdroid/internal/statics"
)

// GapClassRow buckets, for one app, every static (API, component) invocation
// relation of the reachability ceiling into exactly one of three classes:
//
//   - Confirmed: dynamic exploration observed the API firing from that
//     component — the relation is real.
//   - LiftedUnreached: the paths pass lowered at least one launcher-rooted UI
//     route to the site, but no run confirmed it (gated activities, widgets
//     the interface never shows — the static-dynamic gap with an actionable
//     repro script attached).
//   - Blocked: every enumerated path is unliftable (or none exists within the
//     search bounds) — the relation cannot be driven from the UI at all, and
//     directed exploration reports it as such rather than searching for it.
//
// The three buckets partition the ceiling: their sum equals the app's
// StaticReach.Invocations(), so the corpus totals close the loop against the
// 313-relation static / 269-relation dynamic headline.
type GapClassRow struct {
	Package         string `json:"package"`
	Confirmed       int    `json:"confirmed"`
	LiftedUnreached int    `json:"lifted_unreached"`
	Blocked         int    `json:"blocked"`
}

// Static is the row's share of the static ceiling (the bucket sum).
func (r GapClassRow) Static() int { return r.Confirmed + r.LiftedUnreached + r.Blocked }

// GapClassification is the per-app classification with corpus totals.
type GapClassification struct {
	Rows []GapClassRow
}

// Totals sums the rows.
func (g *GapClassification) Totals() GapClassRow {
	t := GapClassRow{Package: "TOTAL"}
	for _, r := range g.Rows {
		t.Confirmed += r.Confirmed
		t.LiftedUnreached += r.LiftedUnreached
		t.Blocked += r.Blocked
	}
	return t
}

// BuildGapClassification classifies every static invocation relation of the
// evaluation's corpus. It needs the explorer-specific results (for the
// extraction behind each app), like BuildCeiling.
func (ev *Evaluation) BuildGapClassification() *GapClassification {
	g := &GapClassification{}
	for _, ar := range ev.Apps {
		ex := ar.Result.Extraction
		confirmed := make(map[string]bool)
		for _, u := range ar.Result.Collector.Usages() {
			for _, cls := range u.Classes {
				confirmed[u.API+"|"+cls] = true
			}
		}
		row := GapClassRow{Package: ar.Row.Package}
		p := paths.New(ex, paths.DefaultConfig())
		for _, sp := range p.PlanAll() {
			switch {
			case confirmed[sp.Target.API+"|"+sp.Target.Class]:
				row.Confirmed++
			case sp.Liftable():
				row.LiftedUnreached++
			default:
				row.Blocked++
			}
		}
		g.Rows = append(g.Rows, row)
	}
	return g
}

// RenderGapClassification renders the three-way partition of the static
// ceiling.
func RenderGapClassification(g *GapClassification) string {
	var b strings.Builder
	b.WriteString("GAP CLASSIFICATION: static invocation relations by dynamic outcome\n\n")
	fmt.Fprintf(&b, "%-34s %10s %8s %8s %8s\n", "Package", "confirmed", "lifted", "blocked", "static")
	b.WriteString(strings.Repeat("-", 72))
	b.WriteByte('\n')
	rows := append(append([]GapClassRow(nil), g.Rows...), g.Totals())
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s %10d %8d %8d %8d\n",
			r.Package, r.Confirmed, r.LiftedUnreached, r.Blocked, r.Static())
	}
	b.WriteString(strings.Repeat("-", 72))
	b.WriteByte('\n')
	b.WriteString("confirmed: dynamically observed.  lifted: a launcher route replays to the\n")
	b.WriteString("site but no run confirmed it.  blocked: no liftable path — reported, not searched.\n")
	return b.String()
}

// TargetRun compares the directed and undirected targeted modes on one
// (app, API) target: interpreter steps to the halt (mean over the study's
// seeds) and whether each mode triggered the API at all.
type TargetRun struct {
	Package string `json:"package"`
	API     string `json:"api"`
	// UndirectedSteps and DirectedSteps are mean interpreter steps until the
	// run halted (on the API, or exhausted).
	UndirectedSteps float64 `json:"undirected_steps"`
	DirectedSteps   float64 `json:"directed_steps"`
	// LaunchSteps is the app's bare cold-launch cost: the steps a plain
	// LaunchMain script spends on a fresh device. Both modes pay it before
	// any searching can start, so the steps-to-target economy is measured on
	// the excess past it.
	LaunchSteps float64 `json:"launch_steps"`
	// UndirectedReached and DirectedReached report the API firing (identical
	// across seeds: both engines are deterministic given a seed).
	UndirectedReached bool `json:"undirected_reached"`
	DirectedReached   bool `json:"directed_reached"`
	// DirectedSkipped marks targets the directed mode refused to search
	// because no static path lifted.
	DirectedSkipped bool `json:"directed_skipped"`
}

// SearchSteps returns the two modes' search work past the common launch.
func (t TargetRun) SearchSteps() (undirected, directed float64) {
	u := t.UndirectedSteps - t.LaunchSteps
	d := t.DirectedSteps - t.LaunchSteps
	if u < 0 {
		u = 0
	}
	if d < 0 {
		d = 0
	}
	return u, d
}

// Searched reports whether reaching the target took any search at all: a
// target firing during the bare launch costs both modes exactly the launch,
// and no guidance can beat that.
func (t TargetRun) Searched() bool {
	u, _ := t.SearchSteps()
	return u > 0
}

// Ratio is directed-to-undirected search steps (0 when undirected needed no
// search past the launch).
func (t TargetRun) Ratio() float64 {
	u, d := t.SearchSteps()
	if u == 0 {
		return 0
	}
	return d / u
}

// DirectedStudy is the corpus-wide directed-vs-undirected comparison.
type DirectedStudy struct {
	Seeds   []int64     `json:"seeds"`
	Targets []TargetRun `json:"targets"`
}

// ReachedCounts tallies targets triggered by each mode.
func (s *DirectedStudy) ReachedCounts() (undirected, directed int) {
	for _, t := range s.Targets {
		if t.UndirectedReached {
			undirected++
		}
		if t.DirectedReached {
			directed++
		}
	}
	return undirected, directed
}

// MeanStepRatio is the mean directed/undirected steps-to-target ratio over
// targets the undirected mode reached with actual search work — the headline
// "≤0.5×" economy of seeding the engine with statically lifted routes.
// Launch-fired targets (both modes halt during the bare launch, spending
// identical, irreducible steps) are excluded: there is no search to speed up.
func (s *DirectedStudy) MeanStepRatio() float64 {
	var sum float64
	n := 0
	for _, t := range s.Targets {
		if !t.UndirectedReached || !t.Searched() {
			continue
		}
		sum += t.Ratio()
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunDirectedStudy runs every (app, API) target of the corpus's static reach
// through both targeted modes under each seed and aggregates steps-to-target.
// Both engines are deterministic, so multiple seeds pin reproducibility
// rather than average out noise; the per-target means are over the seed runs.
func RunDirectedStudy(cfg EvalConfig, seeds []int64) (*DirectedStudy, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	cache := cfg.cache()
	study := &DirectedStudy{Seeds: seeds}
	for _, row := range corpus.PaperRows() {
		ex, err := cache.Extraction(corpus.PaperSpec(row))
		if err != nil {
			return nil, fmt.Errorf("report: directed study extract %s: %w", row.Package, err)
		}
		launchSteps := bareLaunchSteps(ex)
		for _, api := range ex.StaticReach().APIList() {
			tr := TargetRun{Package: row.Package, API: api, LaunchSteps: launchSteps}
			for range seeds {
				ur, err := explorer.ExploreTarget(ex, cfg.Explorer, api)
				if err != nil {
					return nil, fmt.Errorf("report: undirected target %s on %s: %w", api, row.Package, err)
				}
				dr, err := explorer.ExploreTargetDirected(ex, cfg.Explorer, api)
				if err != nil {
					return nil, fmt.Errorf("report: directed target %s on %s: %w", api, row.Package, err)
				}
				if ur.Result != nil {
					tr.UndirectedSteps += float64(ur.Result.Stats.Steps)
				}
				tr.UndirectedReached = tr.UndirectedReached || ur.Triggered
				if dr.Result != nil {
					tr.DirectedSteps += float64(dr.Result.Stats.Steps)
				}
				tr.DirectedReached = tr.DirectedReached || dr.Triggered
				tr.DirectedSkipped = dr.Skipped
			}
			tr.UndirectedSteps /= float64(len(seeds))
			tr.DirectedSteps /= float64(len(seeds))
			study.Targets = append(study.Targets, tr)
		}
	}
	return study, nil
}

// bareLaunchSteps measures the app's cold-launch cost: the steps a plain
// LaunchMain script spends on a fresh device. Every targeted run — guided or
// not — pays at least this before it can search.
func bareLaunchSteps(ex *statics.Extraction) float64 {
	dev := device.New(ex.App, device.Options{})
	sc := robotium.Script{Name: "bare_launch", Ops: []robotium.Op{robotium.LaunchMain()}}
	robotium.Run(dev, sc, robotium.Options{})
	return float64(dev.Steps())
}

// RenderDirectedStudy renders the steps-to-target comparison.
func RenderDirectedStudy(s *DirectedStudy) string {
	var b strings.Builder
	b.WriteString("DIRECTED STUDY: steps-to-target, path-seeded vs frontier search\n\n")
	fmt.Fprintf(&b, "%-34s %-28s %12s %12s %7s\n", "Package", "API", "undirected", "directed", "ratio")
	b.WriteString(strings.Repeat("-", 98))
	b.WriteByte('\n')
	for _, t := range s.Targets {
		note := ""
		if t.DirectedSkipped {
			note = " (skipped: unliftable)"
		}
		fmt.Fprintf(&b, "%-34s %-28s %12.0f %12.0f %6.2fx%s\n",
			t.Package, t.API, t.UndirectedSteps, t.DirectedSteps, t.Ratio(), note)
	}
	b.WriteString(strings.Repeat("-", 98))
	b.WriteByte('\n')
	u, d := s.ReachedCounts()
	fmt.Fprintf(&b, "targets: %d   reached: undirected %d, directed %d   mean step ratio %.3fx (seeds %v)\n",
		len(s.Targets), u, d, s.MeanStepRatio(), s.Seeds)
	return b.String()
}

// DirectedBench is the machine-readable summary `fragstudy -directed` emits
// (BENCH_PR8.json): the steps-to-target economy and the closed-loop gap
// classification totals.
type DirectedBench struct {
	Seeds              []int64     `json:"seeds"`
	Targets            int         `json:"targets"`
	UndirectedReached  int         `json:"undirected_reached"`
	DirectedReached    int         `json:"directed_reached"`
	MeanStepRatio      float64     `json:"mean_step_ratio"`
	GapConfirmed       int         `json:"gap_confirmed"`
	GapLiftedUnreached int         `json:"gap_lifted_unreached"`
	GapBlocked         int         `json:"gap_blocked"`
	GapStatic          int         `json:"gap_static"`
	TargetRuns         []TargetRun `json:"target_runs"`
}

// BuildDirectedBench folds a study and a gap classification into the bench
// summary.
func BuildDirectedBench(s *DirectedStudy, g *GapClassification) DirectedBench {
	u, d := s.ReachedCounts()
	t := g.Totals()
	return DirectedBench{
		Seeds:              s.Seeds,
		Targets:            len(s.Targets),
		UndirectedReached:  u,
		DirectedReached:    d,
		MeanStepRatio:      s.MeanStepRatio(),
		GapConfirmed:       t.Confirmed,
		GapLiftedUnreached: t.LiftedUnreached,
		GapBlocked:         t.Blocked,
		GapStatic:          t.Static(),
		TargetRuns:         s.Targets,
	}
}
