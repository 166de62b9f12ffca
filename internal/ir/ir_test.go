package ir

import (
	"testing"
)

// TestInlineCache covers one monomorphic cache site: an empty site misses,
// a stored resolution hits for its receiver class only, and a store for a
// different class replaces it. Class and method index 0 must not read as
// the empty slot.
func TestInlineCache(t *testing.T) {
	p := &Program{sites: make([]cacheSlot, 3)}
	if got := p.ICLoad(1, 4); got != -1 {
		t.Fatalf("empty site: got %d, want miss", got)
	}
	p.ICStore(1, 4, 7)
	if got := p.ICLoad(1, 4); got != 7 {
		t.Fatalf("hit: got %d, want 7", got)
	}
	if got := p.ICLoad(1, 5); got != -1 {
		t.Fatalf("other receiver class: got %d, want miss", got)
	}
	if got := p.ICLoad(2, 4); got != -1 {
		t.Fatalf("other site: got %d, want miss", got)
	}
	p.ICStore(1, 5, 9)
	if got := p.ICLoad(1, 5); got != 9 {
		t.Fatalf("replaced entry: got %d, want 9", got)
	}
	if got := p.ICLoad(1, 4); got != -1 {
		t.Fatalf("replaced class: got %d, want miss", got)
	}
	p.ICStore(2, 0, 0)
	if got := p.ICLoad(2, 0); got != 0 {
		t.Fatalf("class 0 method 0: got %d, want 0", got)
	}
}

// TestResolve walks superclass chains: a method is found on the class or an
// ancestor, a missing one resolves to -1, and a cyclic chain terminates
// instead of hanging. An archive may declare such a cycle (which is why
// smali's SuperChain breaks cycles too), and Compile links it as declared.
// A class that declares a name twice resolves it to the first declaration,
// and a class without methods falls through to its super.
func TestResolve(t *testing.T) {
	p := &Program{
		Methods: []Method{{Name: "own"}, {Name: "inherited"}, {Name: "twice"}, {Name: "twice"}},
		Classes: []Class{
			{Name: "A", Super: 1, mOff: 0, mEnd: 1},
			{Name: "B", Super: 2, mOff: 1, mEnd: 4},
			{Name: "C", Super: 0, mOff: 4, mEnd: 4},
			{Name: "Self", Super: 3, mOff: 4, mEnd: 4},
			{Name: "Empty", Super: 1, mOff: 4, mEnd: 4},
		},
	}
	for _, c := range []struct {
		class int32
		name  string
		want  int32
	}{
		{0, "own", 0},
		{0, "inherited", 1},
		{2, "own", 0},
		{0, "missing", -1},
		{3, "missing", -1},
		{-1, "own", -1},
		{1, "twice", 2},
		{0, "twice", 2},
		{4, "inherited", 1},
		{4, "twice", 2},
	} {
		if got := p.Resolve(c.class, c.name); got != c.want {
			t.Errorf("Resolve(%d, %q) = %d, want %d", c.class, c.name, got, c.want)
		}
	}
}
