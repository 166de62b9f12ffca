package report

import (
	"strings"
	"testing"
)

// TestCeilingSoundness is the soundness check on the static reachability
// ceiling: everything the dynamic exploration confirmed — activities,
// fragments, sensitive APIs — must lie inside the forced-start fixpoint of
// the whole-program call graph. The converse need not hold (the ceiling is
// an over-approximation), which is exactly why it is a ceiling.
func TestCeilingSoundness(t *testing.T) {
	for _, ar := range evaluation(t).Apps {
		ex := ar.Result.Extraction
		reach := ex.StaticReach()
		for _, a := range ar.Result.VisitedActivities() {
			if !reach.Activities[a] {
				t.Errorf("%s: visited activity %s outside StaticReach", ar.Row.Package, a)
			}
		}
		for _, f := range ar.Result.VisitedFragments() {
			if !reach.Fragments[f] {
				t.Errorf("%s: visited fragment %s outside StaticReach", ar.Row.Package, f)
			}
		}
		for _, u := range ar.Result.Collector.Usages() {
			owners, ok := reach.APIs[u.API]
			if !ok {
				t.Errorf("%s: dynamically observed API %s outside StaticReach", ar.Row.Package, u.API)
				continue
			}
			set := make(map[string]bool, len(owners))
			for _, o := range owners {
				set[o] = true
			}
			for _, cls := range u.Classes {
				if !set[cls] {
					t.Errorf("%s: API %s invoked by %s, not a static owner (%v)",
						ar.Row.Package, u.API, cls, owners)
				}
			}
		}
	}
}

// TestBuildCeiling pins the table's shape and the per-row invariants
// dynamic <= static <= effective for components.
func TestBuildCeiling(t *testing.T) {
	c := evaluation(t).BuildCeiling()
	if len(c.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(c.Rows))
	}
	for _, r := range c.Rows {
		if r.DynA > r.StaticA || r.StaticA > r.SumA {
			t.Errorf("%s: activities dyn %d / static %d / sum %d violate ordering",
				r.Package, r.DynA, r.StaticA, r.SumA)
		}
		if r.DynF > r.StaticF || r.StaticF > r.SumF {
			t.Errorf("%s: fragments dyn %d / static %d / sum %d violate ordering",
				r.Package, r.DynF, r.StaticF, r.SumF)
		}
		if r.DynAPIs > r.StaticAPIs {
			t.Errorf("%s: dynamic APIs %d exceed static %d", r.Package, r.DynAPIs, r.StaticAPIs)
		}
		if r.DynInvocations > r.StaticInvocations {
			t.Errorf("%s: dynamic invocations %d exceed static %d",
				r.Package, r.DynInvocations, r.StaticInvocations)
		}
	}
	out := RenderCeiling(c)
	if !strings.Contains(out, "STATIC CEILING") || !strings.Contains(out, "TOTAL") {
		t.Errorf("RenderCeiling output malformed:\n%s", out)
	}
}

// TestLintStudy runs fraglint across the 217-app dataset: the corpus is
// clean at severity error, and the partition matches the study's.
func TestLintStudy(t *testing.T) {
	s, err := RunLintStudy(StudyConfig{Seed: 1})
	if err != nil {
		t.Fatalf("RunLintStudy: %v", err)
	}
	if s.Total != 217 || s.Packed != 10 || s.Analyzed != 207 {
		t.Errorf("partition = %d/%d/%d, want 217/10/207", s.Total, s.Packed, s.Analyzed)
	}
	if s.Worst >= 3 {
		t.Errorf("corpus has error-severity findings (worst=%s), ByCode=%v", s.Worst, s.ByCode)
	}
	if s.BySeverity["error"] != 0 {
		t.Errorf("corpus error findings = %d, want 0", s.BySeverity["error"])
	}
	out := RenderLintStudy(s)
	if !strings.Contains(out, "FRAGLINT STUDY") || !strings.Contains(out, "217 total") {
		t.Errorf("RenderLintStudy output malformed:\n%s", out)
	}

	// Parallel fold matches the sequential one.
	p, err := RunLintStudy(StudyConfig{Seed: 1, Parallel: 8})
	if err != nil {
		t.Fatalf("parallel RunLintStudy: %v", err)
	}
	if p.Findings != s.Findings || p.AppsWithFindings != s.AppsWithFindings {
		t.Errorf("parallel study diverges: %+v vs %+v", p, s)
	}
}
