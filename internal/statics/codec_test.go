package statics_test

import (
	"bytes"
	"reflect"
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/statics"
)

// TestExtractionCodecRoundTrip checks that DecodeExtraction(EncodeExtraction)
// reproduces every analysis product a consumer can observe, across the demo
// app and the full paper corpus. The lint analyzers, explorer and report
// tables read these fields; any drift between a fresh extraction and its
// decoded twin would silently skew the study metrics a warm cache reports.
func TestExtractionCodecRoundTrip(t *testing.T) {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	for _, spec := range specs {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.Package, err)
		}
		want, err := statics.Extract(app)
		if err != nil {
			t.Fatalf("extract %s: %v", spec.Package, err)
		}
		data, err := statics.EncodeExtraction(want)
		if err != nil {
			t.Fatalf("encode %s: %v", spec.Package, err)
		}
		got, err := statics.DecodeExtraction(data, app)
		if err != nil {
			t.Fatalf("decode %s: %v", spec.Package, err)
		}
		checkRoundTrip(t, got, want)
	}
}

// checkRoundTrip compares every analysis product of a decoded extraction
// with the fresh extraction it was encoded from.
func checkRoundTrip(t *testing.T, got, want *statics.Extraction) {
	t.Helper()
	pkg := want.App.Manifest.Package
	if got.App != want.App {
		t.Errorf("%s: decoded extraction not bound to the given app", pkg)
	}
	check := func(field string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %s differs after round trip:\ngot:  %+v\nwant: %+v", pkg, field, g, w)
		}
	}
	check("EffectiveActivities", got.EffectiveActivities, want.EffectiveActivities)
	check("EffectiveFragments", got.EffectiveFragments, want.EffectiveFragments)
	check("Deps", got.Deps, want.Deps)
	check("ResDeps", got.ResDeps, want.ResDeps)
	check("InputWidgets", got.InputWidgets, want.InputWidgets)
	check("UsesFragmentManager", got.UsesFragmentManager, want.UsesFragmentManager)
	check("SupportFM", got.SupportFM, want.SupportFM)
	check("Containers", got.Containers, want.Containers)
	check("TxnCommitted", got.TxnCommitted, want.TxnCommitted)
	check("SensitiveSites", got.SensitiveSites, want.SensitiveSites)
	check("LayoutsOf", got.LayoutsOf, want.LayoutsOf)
	check("StaticReach", got.StaticReach(), want.StaticReach())
	check("LauncherReach", got.LauncherReach(), want.LauncherReach())
	check("Model nodes", got.Model.Nodes(), want.Model.Nodes())

	// The call graph is compared through its public surface.
	check("Graph nodes", got.Graph().Nodes(), want.Graph().Nodes())
	check("Graph edges", got.Graph().Edges(), want.Graph().Edges())
	check("Graph launcher", got.Graph().Launcher(), want.Graph().Launcher())
	check("Graph activities", got.Graph().Activities(), want.Graph().Activities())
	check("Graph fragments", got.Graph().Fragments(), want.Graph().Fragments())
	check("Graph receivers", got.Graph().Receivers(), want.Graph().Receivers())
	// The Java view is not stored; the accessor recomputes it on first
	// use and it must agree with a fresh decompilation.
	check("Java class names", got.Java().Names(), want.Java().Names())
}

// TestDecodeExtractionRejectsCorruptPayloads truncates a valid payload at
// every offset, and flips bytes through it: the decoder must error (or, for
// blob-internal flips, succeed cleanly) but never panic, and neither may the
// lazy accessors of a mutant that decodes — corrupted store entries become
// silent rebuilds. A payload whose graph or reach blob alone is corrupt
// decodes, and its accessors rebuild what a fresh extraction holds.
func TestDecodeExtractionRejectsCorruptPayloads(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	want, err := statics.Extract(app)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := statics.EncodeExtraction(want)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, err := statics.DecodeExtraction(valid[:cut], app); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	for i := 0; i < len(valid); i += 3 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		if ex, err := statics.DecodeExtraction(mut, app); err == nil {
			ex.Graph()
			ex.StaticReach()
			ex.LauncherReach()
			ex.Java()
		}
	}

	graphBlob, err := want.Graph().Encode()
	if err != nil {
		t.Fatal(err)
	}
	reachBlob := statics.ReachBlob(want)
	for _, c := range []struct {
		name  string
		blobs [][]byte
	}{
		{"reach blob", [][]byte{reachBlob}},
		{"graph and reach blobs", [][]byte{graphBlob, reachBlob}},
	} {
		mut := append([]byte(nil), valid...)
		for _, blob := range c.blobs {
			at := bytes.Index(mut, blob)
			if at < 0 {
				t.Fatalf("%s: blob not found in the payload", c.name)
			}
			// All-0xff bytes are an unterminated varint: the blob's own
			// string table cannot parse.
			for i := at; i < at+len(blob); i++ {
				mut[i] = 0xff
			}
		}
		got, err := statics.DecodeExtraction(mut, app)
		if err != nil {
			t.Fatalf("corrupt %s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got.StaticReach(), want.StaticReach()) ||
			!reflect.DeepEqual(got.LauncherReach(), want.LauncherReach()) {
			t.Errorf("corrupt %s: reach sets differ from the fresh extraction's", c.name)
		}
		if !reflect.DeepEqual(got.Graph().Edges(), want.Graph().Edges()) {
			t.Errorf("corrupt %s: graph differs from the fresh extraction's", c.name)
		}
	}
}
