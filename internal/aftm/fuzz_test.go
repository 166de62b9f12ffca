package aftm_test

import (
	"bytes"
	"runtime"
	"testing"

	"fragdroid/internal/aftm"
	"fragdroid/internal/corpus"
	"fragdroid/internal/statics"
)

// FuzzDecodeModel feeds arbitrary bytes to DecodeModel, as the model inside
// an extraction entry would arrive had the entry's checksum matched.
// DecodeModel must not panic, and the bytes it allocates must stay within 64
// times the input's length plus 64 KiB, the bound the app and extraction
// decoders keep. The seeds are the static AFTMs of the demo app and two
// Table I apps; each must decode to a model that encodes to the same bytes.
func FuzzDecodeModel(f *testing.F) {
	seeds := make(map[string]string)
	for _, spec := range []*corpus.AppSpec{corpus.DemoSpec(), paperSpec(f, "com.adobe.reader"), paperSpec(f, "com.inditex.zara")} {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			f.Fatal(err)
		}
		ex, err := statics.Extract(app)
		if err != nil {
			f.Fatal(err)
		}
		data := aftm.EncodeModel(ex.Model)
		seeds[string(data)] = spec.Package
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pkg, seed := seeds[string(data)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := aftm.DecodeModel(data)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+64<<10; n > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), n, limit)
		}
		if err != nil {
			if seed {
				t.Fatalf("the model of %s was rejected: %v", pkg, err)
			}
			return
		}
		if again := aftm.EncodeModel(m); seed && !bytes.Equal(again, data) {
			t.Fatalf("the model of %s does not round-trip", pkg)
		}
	})
}

// paperSpec returns the Table I spec of pkg.
func paperSpec(tb testing.TB, pkg string) *corpus.AppSpec {
	tb.Helper()
	for _, row := range corpus.PaperRows() {
		if row.Package == pkg {
			return corpus.PaperSpec(row)
		}
	}
	tb.Fatalf("no Table I app %s", pkg)
	return nil
}
