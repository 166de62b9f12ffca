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

// Corpus digests: the sha256 of every generated app's encoded bytes and
// resource table, in corpus order. They pin the generator byte for byte: a
// change to seeding, spec generation or app assembly that moves one byte of
// any app fails here, where the self-consistency tests
// (TestFamilyDeterministicAndPure) would still pass.
const (
	studySeed1Digest  = "b7d859a936ca783600754771e3a8f67b06c1a83296bd82931a3b3a0acb36ace1"
	studySeed7Digest  = "ff76b0ec6506857382d3b3a183038c6bdbb066795f250d8a84087fe669a1e745"
	familyN2000Digest = "308a2ba011e15dee268973faa43f93dc5ce878f1703b5c01b50b762f9f502d61"
)

// digestApp feeds one built app into h: its package, then either a packed
// marker or the apk codec bytes followed by every resource entry.
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
	for _, e := range app.Resources.Entries() {
		fmt.Fprintf(h, "%08x %s\n", uint32(e.ID), e.Ref())
	}
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
const paperDigest = "938d31185011695414ac96530eacbae43261e2b9fb252896ec283e7d4f6f664b"

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
