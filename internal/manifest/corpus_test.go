package manifest_test

import (
	"reflect"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/manifest"
)

// TestCorpusManifestsScanned checks that the scanner, not the encoding/xml
// fallback, reads the manifest of every corpus archive: the Table I apps,
// demo, members 0-999 of the seed-1 family and the seed-1 study. Each
// scanned manifest must equal what encoding/xml reads.
func TestCorpusManifestsScanned(t *testing.T) {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	fam := corpus.NewFamily(1000, 1)
	for i := range fam.Len() {
		specs = append(specs, fam.At(i))
	}
	specs = append(specs, corpus.StudySpecs(1)...)
	for _, spec := range specs {
		arch, err := corpus.BuildArchive(spec)
		if err != nil {
			t.Fatal(err)
		}
		data, ok := arch.Get(apk.ManifestPath)
		if !ok {
			t.Fatalf("%s: no manifest", spec.Package)
		}
		m, ok := manifest.ScanManifest(data)
		if !ok {
			t.Errorf("%s: manifest outside the scanner's dialect", spec.Package)
			continue
		}
		ref, err := manifest.ParseXML(data)
		if err != nil {
			t.Fatalf("%s: %v", spec.Package, err)
		}
		if !reflect.DeepEqual(m, ref) {
			t.Errorf("%s: the scanned manifest differs from encoding/xml's", spec.Package)
		}
	}
	t.Logf("%d manifests, all scanned", len(specs))
}
