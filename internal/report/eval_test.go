package report

import (
	"strings"
	"testing"
)

// evalOnce caches the full 15-app evaluation across tests in this package.
var cachedEval *Evaluation

func evaluation(t *testing.T) *Evaluation {
	t.Helper()
	if cachedEval != nil {
		return cachedEval
	}
	ev, err := RunEvaluation(DefaultEvalConfig())
	if err != nil {
		t.Fatalf("RunEvaluation: %v", err)
	}
	cachedEval = ev
	return ev
}

// TestTable1MatchesPaperTargets is the headline reproduction check: the
// measured Activities and Fragments columns equal the published Table I for
// every app.
func TestTable1MatchesPaperTargets(t *testing.T) {
	t1 := evaluation(t).BuildTable1()
	if len(t1.Rows) != 15 {
		t.Fatalf("rows = %d", len(t1.Rows))
	}
	for _, r := range t1.Rows {
		if r.VisA != r.Paper.VisActs || r.SumA != r.Paper.SumActs {
			t.Errorf("%s: activities %d/%d, paper %d/%d",
				r.Package, r.VisA, r.SumA, r.Paper.VisActs, r.Paper.SumActs)
		}
		if r.VisF != r.Paper.VisFrags || r.SumF != r.Paper.SumFrags {
			t.Errorf("%s: fragments %d/%d, paper %d/%d",
				r.Package, r.VisF, r.SumF, r.Paper.VisFrags, r.Paper.SumFrags)
		}
		// FiVA under the documented consistent semantics: visited equals the
		// visited fragment count, sum never below it.
		if r.VisFiVA != r.VisF {
			t.Errorf("%s: FiVA visited %d != fragments visited %d", r.Package, r.VisFiVA, r.VisF)
		}
		if r.SumFiVA < r.VisFiVA || r.SumFiVA > r.SumF {
			t.Errorf("%s: FiVA sum %d out of range [%d,%d]", r.Package, r.SumFiVA, r.VisFiVA, r.SumF)
		}
	}
	actPct, fragPct, _ := t1.Averages()
	if actPct < 71.5 || actPct > 72.5 {
		t.Errorf("average activity coverage = %.2f%%, paper 71.94%%", actPct)
	}
	if fragPct < 65.5 || fragPct > 66.5 {
		t.Errorf("average fragment coverage = %.2f%%, paper 66%%", fragPct)
	}
}

// TestTable2MatchesPaperAggregates checks the §VII-C numbers.
func TestTable2MatchesPaperAggregates(t *testing.T) {
	m := evaluation(t).BuildTable2()
	st := m.ComputeStats()
	if st.DistinctAPIs != 46 {
		t.Errorf("distinct APIs = %d, want 46", st.DistinctAPIs)
	}
	if st.TotalInvocations != 269 {
		t.Errorf("invocation relations = %d, want 269", st.TotalInvocations)
	}
	if st.FragmentShare < 0.485 || st.FragmentShare > 0.495 {
		t.Errorf("fragment share = %.4f, want ~0.49", st.FragmentShare)
	}
	if st.FragmentOnlyShare < 0.096 {
		t.Errorf("fragment-only share = %.4f, want >= 0.096", st.FragmentOnlyShare)
	}
}

func TestStudyReproduces91Percent(t *testing.T) {
	s, err := RunStudyWith(StudyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Total != 217 {
		t.Errorf("total = %d", s.Total)
	}
	if s.Packed == 0 {
		t.Error("no packed apps modelled")
	}
	if pct := s.FragmentSharePct(); pct < 90 || pct > 92.5 {
		t.Errorf("fragment share = %.1f%%, want ~91%%", pct)
	}
}

func TestRenderers(t *testing.T) {
	ev := evaluation(t)
	t1 := RenderTable1(ev.BuildTable1())
	for _, want := range []string{"TABLE I", "com.adobe.reader", "Average rates", "paper 71.94%"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table1 render missing %q", want)
		}
	}
	t2 := RenderTable2(ev.BuildTable2())
	for _, want := range []string{"TABLE II", "internet/connect", "sensitive APIs", "[ 1]"} {
		if !strings.Contains(t2, want) {
			t.Errorf("Table2 render missing %q", want)
		}
	}
	s, err := RunStudyWith(StudyConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(RenderStudy(s), "91%") {
		t.Error("study render missing paper reference")
	}
}
