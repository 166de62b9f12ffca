package report

import (
	"fmt"
	"sort"
	"strings"

	"fragdroid/internal/corpus"
	"fragdroid/internal/lint"
)

// CeilingRow compares, for one corpus app, the static reachability ceiling
// (the forced-start fixpoint over the whole-program call graph) with what the
// dynamic exploration actually confirmed.
type CeilingRow struct {
	Package string
	// Activities and fragments: effective total, static ceiling, dynamic visits.
	SumA, StaticA, DynA int
	SumF, StaticF, DynF int
	// Sensitive APIs: distinct APIs and (API, component) invocation pairs.
	StaticAPIs, DynAPIs               int
	StaticInvocations, DynInvocations int
}

// Ceiling is the static-vs-dynamic comparison over the Table I corpus.
type Ceiling struct {
	Rows []CeilingRow
}

// Totals sums the rows.
func (c *Ceiling) Totals() CeilingRow {
	t := CeilingRow{Package: "TOTAL"}
	for _, r := range c.Rows {
		t.SumA += r.SumA
		t.StaticA += r.StaticA
		t.DynA += r.DynA
		t.SumF += r.SumF
		t.StaticF += r.StaticF
		t.DynF += r.DynF
		t.StaticAPIs += r.StaticAPIs
		t.DynAPIs += r.DynAPIs
		t.StaticInvocations += r.StaticInvocations
		t.DynInvocations += r.DynInvocations
	}
	return t
}

// BuildCeiling derives the comparison from an evaluation run. The static
// side intersects the reach fixpoint with the effective sets, so both
// columns count against the same denominator.
func (ev *Evaluation) BuildCeiling() *Ceiling {
	c := &Ceiling{}
	for _, ar := range ev.Apps {
		ex := ar.Result.Extraction
		row := CeilingRow{
			Package: ar.Row.Package,
			SumA:    len(ex.EffectiveActivities),
			SumF:    len(ex.EffectiveFragments),
			DynA:    len(ar.Result.VisitedActivities()),
			DynF:    len(ar.Result.VisitedFragments()),
		}
		reach := ex.StaticReach()
		for _, a := range ex.EffectiveActivities {
			if reach.Activities[a] {
				row.StaticA++
			}
		}
		for _, f := range ex.EffectiveFragments {
			if reach.Fragments[f] {
				row.StaticF++
			}
		}
		row.StaticAPIs = len(reach.APIs)
		row.StaticInvocations = reach.Invocations()
		for _, u := range ar.Result.Collector.Usages() {
			row.DynAPIs++
			row.DynInvocations += len(u.Classes)
		}
		c.Rows = append(c.Rows, row)
	}
	return c
}

// RenderCeiling renders the static-ceiling table: for each app, how much of
// the effective component set the call-graph fixpoint proves reachable, next
// to what the explorer confirmed. Dynamic never exceeding static is the
// soundness invariant TestCeilingSoundness pins.
func RenderCeiling(c *Ceiling) string {
	var b strings.Builder
	b.WriteString("STATIC CEILING: call-graph reachability vs dynamic confirmation (static | dynamic / effective)\n\n")
	fmt.Fprintf(&b, "%-32s | %-15s | %-15s | %-11s | %-11s\n",
		"Package Name", "Activities", "Fragments", "APIs", "Invocations")
	b.WriteString(strings.Repeat("-", 98))
	b.WriteByte('\n')
	rows := append(append([]CeilingRow(nil), c.Rows...), c.Totals())
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s | %-15s | %-15s | %-11s | %-11s\n",
			r.Package,
			fmt.Sprintf("%3d |%3d /%3d", r.StaticA, r.DynA, r.SumA),
			fmt.Sprintf("%3d |%3d /%3d", r.StaticF, r.DynF, r.SumF),
			fmt.Sprintf("%4d |%4d", r.StaticAPIs, r.DynAPIs),
			fmt.Sprintf("%4d |%4d", r.StaticInvocations, r.DynInvocations))
	}
	b.WriteString(strings.Repeat("-", 98))
	b.WriteByte('\n')
	t := c.Totals()
	fmt.Fprintf(&b, "Dynamic confirmation of the static ceiling: activities %.2f%%  fragments %.2f%%  invocations %.2f%%\n",
		pctOf(t.DynA, t.StaticA), pctOf(t.DynF, t.StaticF), pctOf(t.DynInvocations, t.StaticInvocations))
	return b.String()
}

func pctOf(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// LintStudy aggregates fraglint findings over the 217-app dataset study.
type LintStudy struct {
	// Total, Packed and Analyzed mirror the study partition: packed apps
	// cannot be decompiled, so they cannot be linted either.
	Total, Packed, Analyzed int
	// AppsWithFindings counts analyzed apps with at least one diagnostic.
	AppsWithFindings int
	// Findings is the total diagnostic count; ByCode and BySeverity break it
	// down per analyzer code and per severity name.
	Findings   int
	ByCode     map[string]int
	BySeverity map[string]int
	// Worst is the highest severity seen anywhere in the corpus.
	Worst lint.Severity
}

// newLintStudy returns an empty aggregate for total apps.
func newLintStudy(total int) *LintStudy {
	return &LintStudy{
		Total:      total,
		ByCode:     make(map[string]int),
		BySeverity: make(map[string]int),
	}
}

// add folds one app's lint outcome into the aggregate.
func (s *LintStudy) add(packed bool, diags []lint.Diagnostic) {
	if packed {
		s.Packed++
		return
	}
	s.Analyzed++
	if len(diags) > 0 {
		s.AppsWithFindings++
	}
	for _, d := range diags {
		s.Findings++
		s.ByCode[d.Code]++
		s.BySeverity[d.Severity.String()]++
		if d.Severity > s.Worst {
			s.Worst = d.Severity
		}
	}
}

// RunLintStudy lints every analyzable app of the dataset study, through the
// same artifact cache and the same in-order fold as the fragment study.
// cfg.Source overrides the corpus. Each extraction is fetched without being
// memoized and dropped once it has folded, so a corpus-scale lint sweep
// holds O(Window) extractions.
func RunLintStudy(cfg StudyConfig) (*LintStudy, error) {
	src := cfg.source()
	cache := cfg.cacheOrDefault()
	s := newLintStudy(src.Len())
	_, err := foldCorpus(cfg, src, "lint study", func(spec *corpus.AppSpec) ([]lint.Diagnostic, error) {
		ex, err := cache.FetchExtraction(spec)
		if err != nil {
			return nil, err
		}
		return lint.Run(ex), nil
	}, func(_ string, packed bool, diags []lint.Diagnostic) { s.add(packed, diags) })
	if err != nil {
		return nil, err
	}
	return s, nil
}

// RenderLintStudy renders the corpus lint summary.
func RenderLintStudy(s *LintStudy) string {
	var b strings.Builder
	b.WriteString("FRAGLINT STUDY: diagnostics across the dataset corpus\n\n")
	fmt.Fprintf(&b, "apps: %d total, %d packed (not analyzable), %d linted\n",
		s.Total, s.Packed, s.Analyzed)
	fmt.Fprintf(&b, "findings: %d across %d apps", s.Findings, s.AppsWithFindings)
	if s.Findings > 0 {
		fmt.Fprintf(&b, " (worst severity: %s)", s.Worst)
	}
	b.WriteByte('\n')
	if len(s.BySeverity) > 0 {
		b.WriteString("by severity:\n")
		for _, name := range []string{"error", "warning", "info"} {
			if n := s.BySeverity[name]; n > 0 {
				fmt.Fprintf(&b, "  %-8s %d\n", name, n)
			}
		}
	}
	if len(s.ByCode) > 0 {
		codes := make([]string, 0, len(s.ByCode))
		for code := range s.ByCode {
			codes = append(codes, code)
		}
		sort.Strings(codes)
		b.WriteString("by analyzer:\n")
		for _, code := range codes {
			fmt.Fprintf(&b, "  %-6s %d\n", code, s.ByCode[code])
		}
	}
	return b.String()
}
