package callgraph

import (
	"bytes"
	"runtime"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/jdcore"
)

// FuzzDecodeGraph feeds arbitrary bytes to Decode against the demo app's
// program, as the graph inside an extraction entry would arrive had the
// entry's checksum matched. Decode must not panic, and the bytes it
// allocates must stay within 64 times the input's length plus 64 KiB, the
// bound the app and extraction decoders keep. The seeds are the graphs of
// the demo app and two Table I apps; each must decode, against its own
// app's program, to a graph that encodes to the same bytes.
func FuzzDecodeGraph(f *testing.F) {
	var demo *apk.App
	seeds := make(map[string]*apk.App)
	for _, spec := range []*corpus.AppSpec{corpus.DemoSpec(), paperSpec(f, "com.adobe.reader"), paperSpec(f, "com.inditex.zara")} {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			f.Fatal(err)
		}
		if demo == nil {
			demo = app
		}
		data, err := Build(app, jdcore.Decompile(app.Program)).Encode()
		if err != nil {
			f.Fatal(err)
		}
		seeds[string(data)] = app
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		app, seed := seeds[string(data)]
		if !seed {
			app = demo
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := Decode(data, app.Program)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+64<<10; n > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), n, limit)
		}
		if err != nil {
			if seed {
				t.Fatalf("the graph of %s was rejected: %v", app.Manifest.Package, err)
			}
			return
		}
		again, err := g.Encode()
		if err != nil {
			t.Fatalf("re-encoding a decoded graph: %v", err)
		}
		if seed && !bytes.Equal(again, data) {
			t.Fatalf("the graph of %s does not round-trip", app.Manifest.Package)
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
