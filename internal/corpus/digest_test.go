package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"strings"
	"testing"

	"fragdroid/internal/apk"
)

// Corpus digests: the sha256 of every generated app's encoded bytes, in
// corpus order. They pin the generator byte for byte: a
// change to seeding, spec generation or app assembly that moves one byte of
// any app fails here, where the self-consistency tests
// (TestFamilyDeterministicAndPure) would still pass.
const (
	studySeed1Digest  = "5814c55653aa2739d5f83376ccbdc8b7cbe19bc91f430bfeb27cca4ce31275ad"
	studySeed7Digest  = "af01ccc0c4c85a6afb7dc894a7d3b348d0cbf5c64fba81797c3535d7ba1924bb"
	familyN2000Digest = "8144ade9a87a2b7dcdd1727988f81f214f397a33fc24f7612542124d3d94529e"
)

// digestApp feeds one built app into h: its package, then either a packed
// marker or the apk codec bytes.
func digestApp(t *testing.T, h hash.Hash, spec *AppSpec) {
	t.Helper()
	fmt.Fprintf(h, "app %s %s\n", spec.Package, spec.Downloads)
	app, err := BuildApp(spec)
	if errors.Is(err, apk.ErrPacked) {
		fmt.Fprintln(h, "packed")
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", spec.Package, err)
	}
	data, err := apk.EncodeApp(app)
	if err != nil {
		t.Fatalf("%s: encode: %v", spec.Package, err)
	}
	h.Write(data)
}

func TestStudyCorpusDigest(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want string
	}{{1, studySeed1Digest}, {7, studySeed7Digest}} {
		h := sha256.New()
		for _, spec := range StudySpecs(tc.seed) {
			digestApp(t, h, spec)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("StudySpecs(%d) digest = %s, want %s", tc.seed, got, tc.want)
		}
	}
}

func TestFamilyCorpusDigest(t *testing.T) {
	fam := NewFamily(2000, 1)
	h := sha256.New()
	for i := 0; i < fam.Len(); i++ {
		fmt.Fprintf(h, "member %d axes %s\n", i, strings.Join(fam.Axes(i), ","))
		digestApp(t, h, fam.At(i))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != familyN2000Digest {
		t.Errorf("NewFamily(2000, 1) digest = %s, want %s", got, familyN2000Digest)
	}
}

// paperDigest pins the demo app and the 15 Table I apps, in table order.
const paperDigest = "7027d9c7ae0d9586535f5efbda8af45a4c289a625eb9cb91c7f58d2251eaa8df"

func TestPaperCorpusDigest(t *testing.T) {
	h := sha256.New()
	digestApp(t, h, DemoSpec())
	for _, row := range PaperRows() {
		digestApp(t, h, PaperSpec(row))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != paperDigest {
		t.Errorf("DemoSpec and PaperSpec digest = %s, want %s", got, paperDigest)
	}
}
