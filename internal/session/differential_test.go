package session_test

import (
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
)

// TestInterpreterDifferentialCorpus runs every paper-corpus app through all
// three engines — the FragDroid explorer, the Activity-level baseline, and
// Monkey — once under the classic tree-walking interpreter and once under the
// compiled instruction IR, and requires the canonical renderings to be
// byte-identical: visits, routes, counters, coverage curves, crash reports,
// collector usages, and full transcripts. The golden fixtures pin three apps
// against pre-port history; this test pins the other twelve against the
// classic interpreter directly, so the two execution paths can never drift
// anywhere in the corpus.
//
// Subtests must not run in parallel: the interpreter selection is a
// process-wide default and the two runs per app toggle it back and forth.
func TestInterpreterDifferentialCorpus(t *testing.T) {
	prev := device.DefaultInterp()
	defer device.SetDefaultInterp(prev)
	for _, row := range corpus.PaperRows() {
		row := row
		t.Run(row.Package, func(t *testing.T) {
			if err := device.SetDefaultInterp("classic"); err != nil {
				t.Fatal(err)
			}
			classic := runParity(t, row.Package)
			if err := device.SetDefaultInterp("ir"); err != nil {
				t.Fatal(err)
			}
			compiled := runParity(t, row.Package)
			if classic != compiled {
				t.Errorf("interpreters diverged for %s (classic len=%d, ir len=%d)\n%s",
					row.Package, len(classic), len(compiled), firstDiff(compiled, classic))
			}
		})
	}
}
