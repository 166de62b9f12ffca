package callgraph

import (
	"encoding/binary"
	"runtime"
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/jdcore"
)

// TestDecodeSplicedCounts splices a large count over each byte of the demo
// app's encoded graph: whichever count it replaces, Decode must not allocate
// beyond a constant multiple of the payload.
func TestDecodeSplicedCounts(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	valid, err := Build(app, jdcore.Decompile(app.Program)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := range valid {
		for _, n := range []int{len(valid), len(valid) / 2, 16384} {
			mut := append(binary.AppendUvarint(append([]byte(nil), valid[:i]...), uint64(n)), valid[i+1:]...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			Decode(mut, app.Program)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(mut))+64<<10; got > limit {
				t.Fatalf("count %d spliced at offset %d: decoding %d bytes allocated %d, limit %d", n, i, len(mut), got, limit)
			}
		}
	}
}
