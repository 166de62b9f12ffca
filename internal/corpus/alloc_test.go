package corpus

import (
	"errors"
	"testing"

	"fragdroid/internal/apk"
)

// TestBuildAppAllocBudget is the allocation regression gate for building
// corpus apps: one BuildApp of com.adobe.reader, and At plus BuildApp per
// member over seed-1 family members 0-63, the family study's whole
// per-member cost. Measured with go1.24 on linux/amd64 at 492 allocs and
// 213.8 per member, once the seeded source kept no ring before draw 274,
// the generator derived each component's names, links and shared refs once,
// generated classes shared one access list and sized their method lists
// and bodies, assembly sized its program and checked references without a
// set per class, assembly built no resource-ID table, and the generator
// sized each widget's child list once and left layout validation to
// assembly (509 and 220.3 before those last two, 523 and 231.3 with the
// table). Before all of them the counts were 891 and 378. Each budget is
// the measured count plus about 5% for corpus growth; a regression here
// multiplies across every member of a 10k-app family. It is skipped under
// the race detector, whose instrumentation moves the count.
func TestBuildAppAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const adobeBudget, memberBudget = 517, 224
	var adobe *AppSpec
	for _, row := range PaperRows() {
		if row.Package == "com.adobe.reader" {
			adobe = PaperSpec(row)
		}
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := BuildApp(adobe); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BuildApp of com.adobe.reader allocates %.0f objects/op", got)
	if got > adobeBudget {
		t.Errorf("BuildApp of com.adobe.reader allocates %.0f objects/op, budget %d", got, adobeBudget)
	}

	fam := NewFamily(64, 1)
	got = testing.AllocsPerRun(5, func() {
		for i := 0; i < fam.Len(); i++ {
			if _, err := BuildApp(fam.At(i)); err != nil && !errors.Is(err, apk.ErrPacked) {
				t.Fatal(err)
			}
		}
	}) / float64(fam.Len())
	t.Logf("At plus BuildApp of a family member allocates %.1f objects/op", got)
	if got > memberBudget {
		t.Errorf("At plus BuildApp of a family member allocates %.1f objects/op, budget %d", got, memberBudget)
	}
}
