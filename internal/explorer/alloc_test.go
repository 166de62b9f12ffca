package explorer

import (
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/statics"
)

// TestExploreAllocBudget is the allocation regression gate for the explorer's
// per-test-case overhead: one full ExploreExtracted of com.adobe.reader under
// the Table I evaluation budget (43 test cases, every one replayed from
// launch), statics excluded. Measured at 334 allocs/op with go1.24 on
// linux/amd64: the explorer observes each UI state once into two dump
// buffers it owns, its interface key allocates nothing, the session replays
// every test case on one reset device that builds no log line without a
// trace observer, an untraced run builds no transcript line, note or
// planned queue, each forced-start script is built once per exploration,
// the explorer runs its own loop with no closure per queue item, and the
// comma-joined fragment key is scanned in place instead of split. Before
// those last two the count was 369, before the untraced run text and the
// reused forced starts 614, before the reset device 1,670, and before the
// single observation 2,193; this budget rejects all of them.
// The budget is the measured count plus about 5% for corpus and device
// growth; a regression here multiplies across every explored app, so it
// fails loudly instead of surfacing as a slow bench. It is skipped under the
// race detector, where the device's pooled interpreter frames are dropped at
// random and the count moves by about 5%.
func TestExploreAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const budget = 351
	var spec *corpus.AppSpec
	for _, row := range corpus.PaperRows() {
		if row.Package == "com.adobe.reader" {
			spec = corpus.PaperSpec(row)
		}
	}
	app, err := corpus.BuildApp(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := statics.Extract(app)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxTestCases = 4000
	got := testing.AllocsPerRun(20, func() {
		if _, err := ExploreExtracted(ex, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one exploration of com.adobe.reader allocates %.0f objects/op", got)
	if got > budget {
		t.Fatalf("one exploration of com.adobe.reader allocates %.0f objects/op, budget %d", got, budget)
	}
}
