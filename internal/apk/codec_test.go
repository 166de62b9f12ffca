package apk_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/binc"
	"fragdroid/internal/corpus"
)

// codecApps builds round-trip fixtures through the real corpus generator
// (the external test package avoids the corpus->apk import cycle): the demo
// app plus the structurally richest Table I app, so fragments, receivers,
// input gates and multi-layout activities all appear in the payload.
func codecApps(t *testing.T) map[string]*apk.App {
	t.Helper()
	apps := make(map[string]*apk.App)
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	for _, spec := range specs {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.Package, err)
		}
		apps[spec.Package] = app
	}
	return apps
}

// TestAppCodecRoundTrip checks that DecodeApp(EncodeApp(app)) reproduces
// every corpus app exactly: manifest, layout trees and program classes in
// order. Encoding the decoded app again must give the same bytes, so the
// reference count EncodeApp computes from the layouts survives the trip.
func TestAppCodecRoundTrip(t *testing.T) {
	for pkg, app := range codecApps(t) {
		data, err := apk.EncodeApp(app)
		if err != nil {
			t.Fatalf("%s: encode: %v", pkg, err)
		}
		got, err := apk.DecodeApp(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", pkg, err)
		}
		checkSameApp(t, pkg, got, app)
		again, err := apk.EncodeApp(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", pkg, err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding the decoded app changed its bytes", pkg)
		}
	}
}

// checkSameApp asserts that a decoded app equals its original: manifest,
// layout trees and program classes in order.
func checkSameApp(t *testing.T, pkg string, got, want *apk.App) {
	t.Helper()
	if !reflect.DeepEqual(got.Manifest, want.Manifest) {
		t.Errorf("%s: manifest differs after round trip", pkg)
	}
	if !reflect.DeepEqual(got.Layouts, want.Layouts) {
		t.Errorf("%s: layouts differ after round trip", pkg)
	}
	wantNames := want.Program.Names()
	gotNames := got.Program.Names()
	if !reflect.DeepEqual(gotNames, wantNames) {
		t.Fatalf("%s: class order differs: got %v, want %v", pkg, gotNames, wantNames)
	}
	for _, name := range wantNames {
		if !reflect.DeepEqual(got.Program.Class(name), want.Program.Class(name)) {
			t.Errorf("%s: class %s differs after round trip", pkg, name)
		}
	}
}

// TestDecodeAppRejectsMalformedWidgetID checks that the decoder rejects a
// widget ID the reference grammar rejects, as layout.Parse does.
func TestDecodeAppRejectsMalformedWidgetID(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	app.Layouts[app.LayoutNames()[0]].Root.IDRef = "id/root"
	data, err := apk.EncodeApp(app)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apk.DecodeApp(data); err == nil || !strings.Contains(err.Error(), `res: reference "id/root" does not start with '@'`) {
		t.Fatalf("DecodeApp = %v, want the ParseRef error", err)
	}
}

// TestDecodeAppRejectsCorruptPayloads feeds truncations and bit-flips of a
// valid encoding to DecodeApp. Any outcome but a clean decode or an error is
// a bug; panics would take down a whole study run. It also splices a large
// count over each byte: whichever count it replaces, the decoder must not
// allocate beyond decodeAllocLimit.
func TestDecodeAppRejectsCorruptPayloads(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	valid, err := apk.EncodeApp(app)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := apk.DecodeApp(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	for i := 0; i < len(valid); i++ {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		// A flip may survive as a value change (e.g. inside a string); it
		// must never panic. Decode errors are the expected common case.
		apk.DecodeApp(mut)
	}
	for i := range valid {
		for _, n := range []int{len(valid), len(valid) / 2, 16384} {
			mut := append(binary.AppendUvarint(append([]byte(nil), valid[:i]...), uint64(n)), valid[i+1:]...)
			_, alloc, _ := decodeApp(mut)
			if limit := decodeAllocLimit(len(mut)); alloc > limit {
				t.Fatalf("count %d spliced at offset %d: decoding %d bytes allocated %d, limit %d", n, i, len(mut), alloc, limit)
			}
		}
	}
}

// TestDecodeAppBoundsNestedCounts crafts payloads whose counts each fit the
// bytes left but would multiply if decoding went on: a chain of widgets
// each claiming every later widget as its children, and layouts and classes
// whose arena totals exceed what they decode. Each must be rejected within
// decodeAllocLimit.
func TestDecodeAppBoundsNestedCounts(t *testing.T) {
	const n = 1000
	widget := func(w *binc.Writer, children int) {
		for i := 0; i < 5; i++ {
			w.Str("") // type, ID, text, hint, onClick
		}
		w.Bool(false) // hidden
		w.Str("")     // fragment class
		w.Bool(children > 0)
		w.Int(children)
	}
	cases := []struct {
		name string
		body func(w *binc.Writer) // after the manifest
	}{
		{"widget chain", func(w *binc.Writer) {
			w.Int(1) // layouts
			w.Str("main")
			w.Int(n)
			for i := 1; i <= n; i++ {
				widget(w, n-i)
			}
			w.Int(0) // classes
		}},
		{"layout node counts", func(w *binc.Writer) {
			w.Int(n)
			for i := 0; i < n; i++ {
				w.Str(fmt.Sprintf("layout%d", i))
				w.Int(n - i)
				widget(w, 0)
			}
			w.Int(0)
		}},
		{"class arena totals", func(w *binc.Writer) {
			w.Int(0)
			w.Int(n)
			for i := 0; i < n; i++ {
				w.Str(fmt.Sprintf("com.ex.C%d", i))
				w.Str("android.app.Activity")
				w.StrSlice(nil) // interfaces
				w.StrSlice(nil) // access
				w.Bool(false)
				w.Int(0)     // fields
				w.Int(1)     // methods
				w.Int(n - i) // instruction total
				w.Int(n - i) // operand total
				w.Str("onCreate")
				w.StrSlice(nil)
				w.Int(0)  // an empty body
				w.Str("") // source file
			}
		}},
	}
	for _, c := range cases {
		w := binc.NewWriter()
		for _, s := range []string{"", "manifest", "com.ex", ""} {
			w.Str(s) // namespace, element, package, version
		}
		w.Int(0) // permissions
		w.Str("")
		w.Int(0) // activities
		w.Int(0) // receivers
		w.Int(0) // resource hint
		c.body(w)
		data := w.Bytes()
		_, alloc, err := decodeApp(data)
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
		if limit := decodeAllocLimit(len(data)); alloc > limit {
			t.Errorf("%s: decoding %d bytes allocated %d, limit %d", c.name, len(data), alloc, limit)
		}
	}
}

// decodeApp runs DecodeApp and reports the bytes it allocated.
func decodeApp(data []byte) (app *apk.App, alloc uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	app, err = apk.DecodeApp(data)
	runtime.ReadMemStats(&after)
	return app, after.TotalAlloc - before.TotalAlloc, err
}

// decodeAllocLimit bounds the bytes DecodeApp may allocate for an n-byte
// input.
func decodeAllocLimit(n int) uint64 {
	return 64*uint64(n) + 64<<10
}

// FuzzDecodeApp feeds arbitrary bytes to DecodeApp, as a store entry would
// arrive had its checksum matched. The decoder must not panic, and the bytes
// it allocates must stay within decodeAllocLimit. The seeds are the payloads
// of the demo app and two Table I apps; each must decode to its original.
func FuzzDecodeApp(f *testing.F) {
	orig := make(map[string]*apk.App)
	for _, spec := range []*corpus.AppSpec{corpus.DemoSpec(), paperSpec(f, "com.adobe.reader"), paperSpec(f, "com.inditex.zara")} {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			f.Fatal(err)
		}
		data, err := apk.EncodeApp(app)
		if err != nil {
			f.Fatal(err)
		}
		orig[string(data)] = app
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		app, alloc, err := decodeApp(data)
		if limit := decodeAllocLimit(len(data)); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), alloc, limit)
		}
		want := orig[string(data)]
		if want == nil {
			return
		}
		if err != nil {
			t.Fatalf("valid payload of %s rejected: %v", want.Manifest.Package, err)
		}
		checkSameApp(t, want.Manifest.Package, app, want)
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
