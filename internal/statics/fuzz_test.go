package statics_test

import (
	"runtime"
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/statics"
)

// FuzzDecodeExtraction feeds arbitrary bytes to DecodeExtraction against the
// demo app, as a store entry would arrive had its checksum matched. Neither
// the decoder nor the lazy accessors of anything it accepts may panic, and
// the bytes the decoder allocates must stay within a constant multiple of
// the input's length. The seeds are valid payloads of the demo app and two
// Table I apps; each must decode, against its own app, to its fresh
// extraction.
func FuzzDecodeExtraction(f *testing.F) {
	demo, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		f.Fatal(err)
	}
	fresh := make(map[string]*statics.Extraction)
	for _, spec := range []*corpus.AppSpec{corpus.DemoSpec(), paperSpec(f, "com.adobe.reader"), paperSpec(f, "com.inditex.zara")} {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			f.Fatal(err)
		}
		ex, err := statics.Extract(app)
		if err != nil {
			f.Fatal(err)
		}
		data, err := statics.EncodeExtraction(ex)
		if err != nil {
			f.Fatal(err)
		}
		fresh[string(data)] = ex
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		app := demo
		want := fresh[string(data)]
		if want != nil {
			app = want.App
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ex, err := statics.DecodeExtraction(data, app)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, decodeAllocLimit(len(data)); n > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), n, limit)
		}
		if err != nil {
			if want != nil {
				t.Fatalf("valid payload of %s rejected: %v", want.App.Manifest.Package, err)
			}
			return
		}
		ex.Graph()
		ex.StaticReach()
		ex.LauncherReach()
		ex.Java()
		if want != nil {
			checkRoundTrip(t, ex, want)
		}
	})
}

// decodeAllocLimit bounds the bytes DecodeExtraction may allocate for an
// n-byte input.
func decodeAllocLimit(n int) uint64 {
	return 64*uint64(n) + 64<<10
}
