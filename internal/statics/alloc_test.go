package statics

import (
	"testing"

	"fragdroid/internal/corpus"
)

// TestExtractAllocBudget is the allocation regression gate for the static
// phase: one Extract of com.adobe.reader. Measured at 403 allocs/op with
// go1.24 on linux/amd64, once the call graph and both reach sets moved to
// first use, the statement scans stopped copying each class's statements,
// lowering stopped rendering each statement's Java line and gave each class
// one statement slice, the isolated-node pass stopped sorting every node,
// and the AFTM kept its edges in slices instead of one allocation each (411
// before). Before the lowering changes the count was 719, and before lazy
// reachability 1,286; this budget rejects both. The budget is
// the measured count plus about 5% for corpus growth; Extract runs on every
// cold load and every triage op, so a regression here multiplies across
// every app. It is skipped under the race detector, whose instrumentation
// moves the count.
func TestExtractAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const budget = 423
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
	got := testing.AllocsPerRun(20, func() {
		if _, err := Extract(app); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one Extract of com.adobe.reader allocates %.0f objects/op", got)
	if got > budget {
		t.Fatalf("one Extract of com.adobe.reader allocates %.0f objects/op, budget %d", got, budget)
	}
}
