package smali_test

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/smali"
)

// corpusPrograms builds the programs of the 16 built-in corpus apps and of
// the first 200 family members (packed members excepted).
func corpusPrograms(t *testing.T) []*smali.Program {
	t.Helper()
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	fam := corpus.NewFamily(200, 1)
	for i := 0; i < fam.Len(); i++ {
		if spec := fam.At(i); !spec.Packed {
			specs = append(specs, spec)
		}
	}
	progs := make([]*smali.Program, 0, len(specs))
	for _, spec := range specs {
		app, err := corpus.BuildApp(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Package, err)
		}
		progs = append(progs, app.Program)
	}
	return progs
}

// bruteInner is the specification of InnerClasses: a scan of every class.
func bruteInner(p *smali.Program, name string) []string {
	var out []string
	for _, n := range p.Names() {
		if strings.HasPrefix(n, name+"$") {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func checkInnerParity(t *testing.T, p *smali.Program) {
	t.Helper()
	for _, name := range p.Names() {
		if got, want := p.InnerClasses(name), bruteInner(p, name); !reflect.DeepEqual(got, want) {
			t.Fatalf("InnerClasses(%s) = %v, want %v", name, got, want)
		}
	}
}

// TestInnerClassesIndexParity holds the sorted-index InnerClasses to the
// brute-force scan. The generated apps have no inner classes of their own,
// so after a first pass (which builds the index) the test nests inner
// classes under every other class, including names that sort right next
// to a "$" range, and checks again: the second pass also proves Add drops
// the stale index.
func TestInnerClassesIndexParity(t *testing.T) {
	for _, p := range corpusPrograms(t) {
		checkInnerParity(t, p)
		for i, name := range p.Names() {
			if i%2 != 0 {
				continue
			}
			for _, n := range []string{name + "$1", name + "$1$2", name + "$Inner", name + "#", name + "0"} {
				if err := p.Add(&smali.Class{Name: n, Super: smali.ClassObject}); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkInnerParity(t, p)
	}
}

// TestInnerClassesConcurrentFirstUse has many goroutines build the lazy
// index at once, as devices and analyses sharing one app do; run it under
// -race. Every caller must get the same answer.
func TestInnerClassesConcurrentFirstUse(t *testing.T) {
	p := smali.NewProgram()
	for _, n := range []string{"a.Main", "a.Main$1", "a.Main$2", "a.Other", "a.Other$x"} {
		if err := p.Add(&smali.Class{Name: n, Super: smali.ClassObject}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"a.Main$1", "a.Main$2"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := p.InnerClasses("a.Main"); !reflect.DeepEqual(got, want) {
				t.Errorf("InnerClasses = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestIsSubclassOfMatchesSuperChain holds the allocation-free chain walk to
// its definition, membership in SuperChain, on the corpus programs and on
// programs whose superclass chains loop.
func TestIsSubclassOfMatchesSuperChain(t *testing.T) {
	progs := corpusPrograms(t)
	for _, loop := range [][][2]string{
		{{"p.A", "p.A"}},
		{{"p.A", "p.B"}, {"p.B", "p.A"}},
		{{"p.A", "p.B"}, {"p.B", "p.C"}, {"p.C", "p.B"}},
		{{"p.A", "p.B"}, {"p.B", "p.C"}, {"p.C", smali.ClassFragment}},
	} {
		p := smali.NewProgram()
		for _, c := range loop {
			if err := p.Add(&smali.Class{Name: c[0], Super: c[1]}); err != nil {
				t.Fatal(err)
			}
		}
		progs = append(progs, p)
	}
	bases := []string{smali.ClassActivity, smali.ClassFragmentActivity, smali.ClassFragment,
		smali.ClassSupportFragment, smali.ClassReceiver, smali.ClassObject, "p.A", "p.B", "p.C"}
	for _, p := range progs {
		for _, name := range append(p.Names(), "no.such.Class") {
			chain := p.SuperChain(name)
			in := func(b string) bool {
				for _, s := range chain {
					if s == b {
						return true
					}
				}
				return false
			}
			for _, b := range append(bases, name) {
				if got := p.IsSubclassOf(name, b); got != in(b) {
					t.Fatalf("IsSubclassOf(%s, %s) = %v, SuperChain %v", name, b, got, chain)
				}
			}
			if got, want := p.IsFragmentClass(name), in(smali.ClassFragment) || in(smali.ClassSupportFragment); got != want {
				t.Fatalf("IsFragmentClass(%s) = %v, SuperChain %v", name, got, chain)
			}
			if got, want := p.IsActivityClass(name), in(smali.ClassActivity) || in(smali.ClassFragmentActivity); got != want {
				t.Fatalf("IsActivityClass(%s) = %v, SuperChain %v", name, got, chain)
			}
		}
	}
}
