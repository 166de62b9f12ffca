package report

import (
	"fmt"
	"strings"

	"fragdroid/internal/sensitive"
	"fragdroid/internal/session"
)

// sessionStats aliases the shared run-stats shape for the renderers.
type sessionStats = session.Stats

// RenderTable1 renders the measured coverage table in the layout of the
// paper's Table I, with the published numbers alongside for comparison.
func RenderTable1(t *Table1) string {
	var b strings.Builder
	b.WriteString("TABLE I: Coverage of Activities and Fragments Detection (measured | paper)\n\n")
	fmt.Fprintf(&b, "%-32s %-13s | %-17s | %-17s | %-17s\n",
		"Package Name", "Downloads", "Activities", "Fragments", "Frag. in Vis. Act.")
	fmt.Fprintf(&b, "%-32s %-13s | %-17s | %-17s | %-17s\n",
		"", "", "Vis/Sum  Rate", "Vis/Sum  Rate", "Vis/Sum  Rate")
	b.WriteString(strings.Repeat("-", 110))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-32s %-13s | %3d/%-3d %6.2f%% | %3d/%-3d %6.2f%% | %3d/%-3d %6.2f%%\n",
			r.Package, r.Downloads,
			r.VisA, r.SumA, r.RateA(),
			r.VisF, r.SumF, r.RateF(),
			r.VisFiVA, r.SumFiVA, r.RateFiVA())
		fmt.Fprintf(&b, "%-32s %-13s | %3d/%-3d (paper) | %3d/%-3d (paper) | %3d/%-3d (paper)\n",
			"", "",
			r.Paper.VisActs, r.Paper.SumActs,
			r.Paper.VisFrags, r.Paper.SumFrags,
			r.Paper.PaperFiVAVis, r.Paper.PaperFiVASum)
	}
	b.WriteString(strings.Repeat("-", 110))
	b.WriteByte('\n')
	a, f, fv := t.Averages()
	fmt.Fprintf(&b, "Average rates: Activities %.2f%% (paper 71.94%%)  Fragments %.2f%% (paper 66%%)  FiVA %.2f%%\n",
		a, f, fv)
	return b.String()
}

// RenderTable2 renders the sensitive-operations matrix in the layout of the
// paper's Table II. Columns are numbered; a legend maps numbers to package
// names. Marks: ● invoked by Activity, ◐ by Fragment, ⊙ by both.
func RenderTable2(m *sensitive.Matrix) string {
	var b strings.Builder
	b.WriteString("TABLE II: Sensitive Operations Detection\n")
	b.WriteString("Marks: ● Activity   ◐ Fragment   ⊙ Both\n\n")
	for i, app := range m.Apps {
		fmt.Fprintf(&b, "  [%2d] %s\n", i+1, app)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-48s", "Sensitive API")
	for i := range m.Apps {
		fmt.Fprintf(&b, " %2d", i+1)
	}
	b.WriteByte('\n')
	b.WriteString(strings.Repeat("-", 48+3*len(m.Apps)))
	b.WriteByte('\n')
	lastCat := ""
	for _, api := range m.APIs {
		if cat := sensitive.Category(api); cat != lastCat {
			if lastCat != "" {
				b.WriteByte('\n')
			}
			lastCat = cat
		}
		fmt.Fprintf(&b, "%-48s", api)
		for _, app := range m.Apps {
			fmt.Fprintf(&b, " %s ", m.Cell(api, app))
		}
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat("-", 48+3*len(m.Apps)))
	b.WriteByte('\n')
	st := m.ComputeStats()
	fmt.Fprintf(&b, "%s\n", st)
	b.WriteString("Paper: 46 sensitive APIs, 269 invocations, 49% fragment-associated, >=9.6% missed by Activity-level tools\n")
	return b.String()
}

// RenderRunMetrics renders the per-app session counters of an evaluation as
// a markdown table, with a totals row.
func RenderRunMetrics(ev *Evaluation) string {
	var b strings.Builder
	b.WriteString("## Run metrics\n\n")
	b.WriteString("| app | strategy | test cases | device steps | replays | reflection attempts | reflection failures | forced starts | input fills | crashes |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
	row := func(name, strat string, s sessionStats) {
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %d | %d | %d | %d | %d |\n",
			name, strat, s.TestCases, s.Steps, s.Replays, s.ReflectionAttempts,
			s.ReflectionFailures, s.ForcedStarts, s.InputFills, s.Crashes)
	}
	for _, m := range ev.RunMetrics() {
		row(m.Package, m.Strategy, m.Stats)
	}
	row("**total**", ev.Strategy, ev.TotalStats())
	return b.String()
}

// RenderStudy renders the §VII-A fragment-usage study result.
func RenderStudy(s *StudyResult) string {
	var b strings.Builder
	b.WriteString("Fragment-usage study (Google Play top downloads)\n")
	fmt.Fprintf(&b, "  apps downloaded:        %d\n", s.Total)
	fmt.Fprintf(&b, "  packed / not analyzable: %d\n", s.Packed)
	fmt.Fprintf(&b, "  analyzable:             %d\n", s.Analyzable)
	fmt.Fprintf(&b, "  using Fragments:        %d (%.1f%%)\n", s.WithFragments, s.FragmentSharePct())
	b.WriteString("  paper: \"nearly 91% of these apps use Fragments\"\n")
	if len(s.ByCategory) > 0 {
		b.WriteString("\n  by category (apps / with fragments):\n")
		for _, c := range s.ByCategory {
			fmt.Fprintf(&b, "    %-18s %3d / %3d\n", c.Category, c.Apps, c.WithFragments)
		}
	}
	return b.String()
}

// RenderComparison renders the FragDroid vs baselines experiment.
func RenderComparison(c *Comparison) string {
	var b strings.Builder
	b.WriteString("Baseline comparison over the 15-app corpus\n\n")
	fmt.Fprintf(&b, "%-20s %-10s %10s %10s %6s %10s %22s %10s\n",
		"System", "Strategy", "Act cov%", "Frag cov%", "APIs", "Frag rels", "Missed FragDroid rels", "Test cases")
	b.WriteString(strings.Repeat("-", 107))
	b.WriteByte('\n')
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%-20s %-10s %9.2f%% %9.2f%% %6d %10d %21.1f%% %10d\n",
			r.System, r.Strategy, r.ActivityPct, r.FragmentPct, r.APIs,
			r.FragmentAPIRelations, r.MissedFragmentAPIPct, r.TestCases)
	}
	b.WriteString(strings.Repeat("-", 107))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "FragDroid reference: %s\n", c.FragDroidStats)
	return b.String()
}

// RenderBakeoff renders the strategy bake-off as a markdown table: one row
// per strategy, one coverage column per grid budget (mean ± variance across
// seeds), plus fragment coverage, distinct APIs and total work at the full
// budget.
func RenderBakeoff(bo *Bakeoff) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## Strategy bake-off (%d apps, %d seeds from %d, budget %d)\n\n",
		bo.Apps, bo.Seeds, bo.BaseSeed, bo.Budget)
	b.WriteString("Cells are mean ± variance of per-seed corpus-mean effective-activity coverage.\n\n")
	b.WriteString("| strategy |")
	for _, budget := range bo.Grid {
		fmt.Fprintf(&b, " act%%@%d |", budget)
	}
	b.WriteString(" frag% | APIs | test cases |\n")
	b.WriteString("|---|")
	for range bo.Grid {
		b.WriteString("---|")
	}
	b.WriteString("---|---|---|\n")
	for _, r := range bo.Rows {
		fmt.Fprintf(&b, "| %s |", r.Strategy)
		for _, c := range r.Cells {
			fmt.Fprintf(&b, " %.2f ±%.2f |", c.MeanActPct, c.VarActPct)
		}
		fmt.Fprintf(&b, " %.2f | %d | %d |\n", r.FragmentPct, r.APIs, r.TestCases)
	}
	return b.String()
}
