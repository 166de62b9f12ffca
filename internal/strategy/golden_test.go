package strategy

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
)

var update = flag.Bool("update", false, "rewrite the strategy golden files")

// goldenApps are the apps TestStrategyGoldens pins every strategy on: the
// demo app and a fragment-heavy paper row with reflection and crash paths.
var goldenApps = []string{"com.demo.app", "com.adobe.reader"}

// TestStrategyGoldens pins every registered strategy's whole observable
// outcome on two corpus apps: the visited sets, the counters, the curve, the
// crash reports, the collector usages, the transcript and the SHA-256 of the
// trace JSON. A change to any engine's loop that moves one event, note or
// counter fails here, with the first differing line named.
func TestStrategyGoldens(t *testing.T) {
	exs := corpusExtractions(t)
	lib, err := CorpusLibrary("")
	if err != nil {
		t.Fatalf("corpus library: %v", err)
	}
	for _, pkg := range goldenApps {
		for _, name := range Names() {
			t.Run(pkg+"/"+name, func(t *testing.T) {
				buf := &session.TraceBuffer{}
				out, err := Run(name, exs[pkg], Options{
					Budget:   400,
					Seed:     7,
					Curve:    true,
					Library:  lib,
					Observer: buf,
				})
				if err != nil {
					t.Fatalf("%s on %s: %v", name, pkg, err)
				}
				js, err := buf.JSON()
				if err != nil {
					t.Fatal(err)
				}
				got := renderOutcome(out, js)
				path := filepath.Join("testdata", pkg+"."+name+".golden")
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
					t.Fatalf("missing golden file (run with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s on %s diverged from %s\n%s", name, pkg, path, firstDiff(got, string(want)))
				}
			})
		}
	}
}

// renderOutcome renders every field of an outcome in a canonical text form,
// with the run's trace JSON as its SHA-256.
func renderOutcome(out *session.Outcome, traceJSON []byte) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy %s\n", out.Strategy)
	fmt.Fprintf(&b, "visited-activities: %s\n", strings.Join(out.VisitedActivities, " "))
	fmt.Fprintf(&b, "visited-fragments: %s\n", strings.Join(out.VisitedFragments, " "))
	fmt.Fprintf(&b, "stats %+v\n", out.Stats)
	for _, p := range out.Curve {
		fmt.Fprintf(&b, "curve %d %d %d\n", p.TestCase, p.Activities, p.Fragments)
	}
	for _, cr := range out.CrashReports {
		fmt.Fprintf(&b, "crash %q route=%s\n", cr.Reason, renderScript(cr.Route))
	}
	for _, u := range out.Collector.Usages() {
		fmt.Fprintf(&b, "api %s mark=%s count=%d classes=%s\n",
			u.API, u.Mark().ASCII(), u.Count, strings.Join(u.Classes, ","))
	}
	for _, line := range out.Transcript {
		fmt.Fprintf(&b, "log %s\n", line)
	}
	fmt.Fprintf(&b, "trace-sha256 %x\n", sha256.Sum256(traceJSON))
	return b.String()
}

func renderScript(s robotium.Script) string {
	ops := make([]string, len(s.Ops))
	for i, op := range s.Ops {
		ops[i] = op.String()
	}
	return s.Name + "[" + strings.Join(ops, "; ") + "]"
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
