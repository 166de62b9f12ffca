package session_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fragdroid/internal/baseline"
	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/robotium"
	"fragdroid/internal/sensitive"
	"fragdroid/internal/session"
)

// update regenerates the golden fixtures. The fixtures were produced by the
// pre-session engines (the private runScript/logf plumbing each engine used
// to carry), so this test pins that the port onto internal/session is
// behavior-preserving byte for byte: visits, routes, counters, curves, crash
// reports, collector usages, and transcripts all unchanged.
var update = flag.Bool("update", false, "rewrite golden parity fixtures")

// parityApps are the corpus apps the fixtures cover: an action-bar-popup
// app, a reflection-failure app, and an input-gated app.
var parityApps = []string{
	"com.adobe.reader",
	"com.inditex.zara",
	"com.weather.Weather",
}

func parityApp(t *testing.T, pkg string) *corpus.AppSpec {
	t.Helper()
	for _, row := range corpus.PaperRows() {
		if row.Package == pkg {
			return corpus.PaperSpec(row)
		}
	}
	t.Fatalf("unknown parity app %s", pkg)
	return nil
}

// renderExplorer renders every observable field of an explorer result in a
// canonical text form.
func renderExplorer(res *explorer.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== explorer ==\n")
	fmt.Fprintf(&b, "visited-activities: %s\n", strings.Join(res.VisitedActivities(), " "))
	fmt.Fprintf(&b, "visited-fragments: %s\n", strings.Join(res.VisitedFragments(), " "))
	fv, fsum := res.FragmentsInVisitedActivities()
	fmt.Fprintf(&b, "fiva: %d/%d\n", fv, fsum)
	fmt.Fprintf(&b, "counters: cases=%d steps=%d crashes=%d\n", res.TestCases, res.Steps, res.Crashes)

	var nodes []string
	for n := range res.Visits {
		nodes = append(nodes, n.String())
	}
	sort.Strings(nodes)
	for _, name := range nodes {
		for n, v := range res.Visits {
			if n.String() != name {
				continue
			}
			fmt.Fprintf(&b, "visit %s via %s route=%s\n", name, v.Method, renderScript(v.Route))
		}
	}
	for _, p := range res.Curve {
		fmt.Fprintf(&b, "curve %d %d %d\n", p.TestCase, p.Activities, p.Fragments)
	}
	for _, cr := range res.CrashReports {
		fmt.Fprintf(&b, "crash %q route=%s\n", cr.Reason, renderScript(cr.Route))
	}
	renderCollector(&b, res.Collector)
	renderTranscript(&b, res.Transcript)
	return b.String()
}

func renderBaseline(label string, res *session.Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", label)
	fmt.Fprintf(&b, "visited-activities: %s\n", strings.Join(res.VisitedActivities, " "))
	fmt.Fprintf(&b, "counters: cases=%d steps=%d crashes=%d\n", res.TestCases, res.Steps, res.Crashes)
	renderCollector(&b, res.Collector)
	renderTranscript(&b, res.Transcript)
	return b.String()
}

func renderScript(s robotium.Script) string {
	ops := make([]string, len(s.Ops))
	for i, op := range s.Ops {
		ops[i] = op.String()
	}
	return s.Name + "[" + strings.Join(ops, "; ") + "]"
}

func renderCollector(b *strings.Builder, c *sensitive.Collector) {
	for _, u := range c.Usages() {
		fmt.Fprintf(b, "api %s mark=%s count=%d classes=%s\n",
			u.API, u.Mark().ASCII(), u.Count, strings.Join(u.Classes, ","))
	}
}

func renderTranscript(b *strings.Builder, lines []string) {
	for _, line := range lines {
		fmt.Fprintf(b, "log %s\n", line)
	}
}

// runParity produces the full canonical rendering for one corpus app: the
// FragDroid explorer, the Activity-level baseline, and Monkey, run with the
// evaluation configurations. Each engine runs traced, so that it keeps its
// transcript.
func runParity(t *testing.T, pkg string) string {
	t.Helper()
	spec := parityApp(t, pkg)
	app, err := corpus.BuildApp(spec)
	if err != nil {
		t.Fatalf("build %s: %v", pkg, err)
	}

	ecfg := explorer.DefaultConfig()
	ecfg.MaxTestCases = 4000
	ecfg.Observer = &session.TraceBuffer{}
	eres, err := explorer.Explore(app, ecfg)
	if err != nil {
		t.Fatalf("explore %s: %v", pkg, err)
	}

	acfg := baseline.DefaultActivityConfig()
	acfg.MaxTestCases = 4000
	acfg.Observer = &session.TraceBuffer{}
	ares, err := baseline.ExploreActivities(app, acfg)
	if err != nil {
		t.Fatalf("activity baseline %s: %v", pkg, err)
	}

	mres, err := baseline.Monkey(app, baseline.MonkeyConfig{Seed: 7, Events: 1500, Observer: &session.TraceBuffer{}})
	if err != nil {
		t.Fatalf("monkey %s: %v", pkg, err)
	}

	return "app " + pkg + "\n" +
		renderExplorer(eres) +
		renderBaseline("activity-baseline", ares) +
		renderBaseline("monkey", mres)
}

// TestEngineParityGolden pins that the session-layer port left every engine's
// observable behavior byte-identical: the fixtures were generated before the
// port and must keep matching after it.
func TestEngineParityGolden(t *testing.T) {
	for _, pkg := range parityApps {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) {
			got := runParity(t, pkg)
			path := filepath.Join("testdata", "parity_"+pkg+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("parity broken for %s: result diverged from pre-port golden (len got=%d want=%d)\n%s",
					pkg, len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

// firstDiff locates the first differing line for a readable failure message.
func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("first diff at line %d:\n  got:  %s\n  want: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("line counts differ: got %d, want %d", len(gl), len(wl))
}
