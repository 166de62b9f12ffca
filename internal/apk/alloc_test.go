package apk_test

import (
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
)

// TestDecodeAppAllocBudget is the allocation regression gate for a warm
// app load: one DecodeApp of com.adobe.reader's encoding. Measured with
// go1.24 on linux/amd64 at 222 allocs once decoding built no resource-ID
// table, 240 while it did; the budget is the measured count plus about 5%
// and rejects the old count. Every app a store-backed run reads pays it.
// It is skipped under the race detector, whose instrumentation moves the
// count.
func TestDecodeAppAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const budget = 233
	app, err := corpus.BuildApp(paperSpec(t, "com.adobe.reader"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := apk.EncodeApp(app)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := apk.DecodeApp(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeApp of com.adobe.reader allocates %.0f objects/op", got)
	if got > budget {
		t.Errorf("DecodeApp of com.adobe.reader allocates %.0f objects/op, budget %d", got, budget)
	}
}
