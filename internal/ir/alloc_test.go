package ir

import (
	"testing"

	"fragdroid/internal/corpus"
)

// TestCompileAllocBudget is the allocation regression gate for the compile:
// one Compile of com.adobe.reader. Measured at 104 allocs/op with go1.24 on
// linux/amd64, once Compile counted the code before sizing its tables, kept
// each class's methods as a range instead of a map, and gave each layout one
// WidgetInfo slice and one path array. Before that the count was 304, which
// this budget rejects. The budget is the measured count plus about 5% for
// corpus growth; every app compiles once per process on its first execution,
// so a regression here multiplies across every explored app. It is skipped
// under the race detector, whose instrumentation moves the count.
func TestCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const budget = 110
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
	got := testing.AllocsPerRun(20, func() { Compile(app) })
	t.Logf("one Compile of com.adobe.reader allocates %.0f objects/op", got)
	if got > budget {
		t.Fatalf("one Compile of com.adobe.reader allocates %.0f objects/op, budget %d", got, budget)
	}
}
