package layout_test

import (
	"path"
	"reflect"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/layout"
)

// TestCorpusLayoutsScanned checks that the scanner, not the encoding/xml
// fallback, reads every layout the corpus archives carry: the Table I apps,
// demo, members 0-999 of the seed-1 family and the seed-1 study. Each
// scanned tree must equal what encoding/xml reads.
func TestCorpusLayoutsScanned(t *testing.T) {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	fam := corpus.NewFamily(1000, 1)
	for i := range fam.Len() {
		specs = append(specs, fam.At(i))
	}
	specs = append(specs, corpus.StudySpecs(1)...)
	docs := 0
	for _, spec := range specs {
		arch, err := corpus.BuildArchive(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range arch.WithPrefix(apk.LayoutDir) {
			data, _ := arch.Get(p)
			root, ok := layout.ScanWidgets(data)
			if !ok {
				t.Errorf("%s %s: outside the scanner's dialect", spec.Package, p)
				continue
			}
			ref, err := layout.ParseXML(strings.TrimSuffix(path.Base(p), ".xml"), data)
			if err != nil {
				t.Fatalf("%s %s: %v", spec.Package, p, err)
			}
			if !reflect.DeepEqual(root, ref) {
				t.Errorf("%s %s: the scanned tree differs from encoding/xml's", spec.Package, p)
			}
			docs++
		}
	}
	if docs == 0 {
		t.Fatal("no layouts")
	}
	t.Logf("%d layouts from %d apps, all scanned", docs, len(specs))
}
