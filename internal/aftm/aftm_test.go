package aftm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// buildModel constructs the Figure-5-like model:
//
//	A0 -E1-> A1, A0 -E1-> A2
//	A0 -E2-> F0, A0 -E2-> F1
//	F0 -E3-> F1
//	A2 -E2-> F2
func buildModel(t *testing.T) *Model {
	t.Helper()
	m := New()
	if err := m.SetEntry(ActivityNode("A0")); err != nil {
		t.Fatal(err)
	}
	edges := []struct {
		from, to Node
		via      string
	}{
		{ActivityNode("A0"), ActivityNode("A1"), ViaIntent},
		{ActivityNode("A0"), ActivityNode("A2"), ViaIntent},
		{ActivityNode("A0"), FragmentNode("F0"), ViaTransaction},
		{ActivityNode("A0"), FragmentNode("F1"), ViaTransaction},
		{FragmentNode("F0"), FragmentNode("F1"), ViaClick("@id/tab")},
		{ActivityNode("A2"), FragmentNode("F2"), ViaTransaction},
	}
	for _, e := range edges {
		if _, err := m.AddEdge(e.from, e.to, e.via); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestCounts(t *testing.T) {
	m := buildModel(t)
	c := m.Count()
	if c.Activities != 3 || c.Fragments != 3 {
		t.Fatalf("counts = %+v", c)
	}
	if c.E1 != 2 || c.E2 != 3 || c.E3 != 1 {
		t.Fatalf("edge counts = %+v", c)
	}
}

func TestEdgeClassification(t *testing.T) {
	m := New()
	if _, err := m.AddEdge(FragmentNode("F"), ActivityNode("A"), ""); err == nil {
		t.Error("F->A must not be a basic edge")
	}
	if _, err := m.AddEdge(ActivityNode("A"), ActivityNode("A"), ""); err == nil {
		t.Error("self edge must fail")
	}
	isNew, err := m.AddEdge(ActivityNode("A"), FragmentNode("F"), "")
	if err != nil || !isNew {
		t.Fatalf("AddEdge = %v, %v", isNew, err)
	}
	e, ok := m.EdgeBetween(ActivityNode("A"), FragmentNode("F"))
	if !ok || e.Kind != E2 {
		t.Fatalf("EdgeBetween = %+v, %v", e, ok)
	}
}

func TestAddEdgeDedupAndViaUpgrade(t *testing.T) {
	m := New()
	if _, err := m.AddEdge(ActivityNode("A"), FragmentNode("F"), ViaReflection); err != nil {
		t.Fatal(err)
	}
	isNew, err := m.AddEdge(ActivityNode("A"), FragmentNode("F"), ViaClick("@id/b"))
	if err != nil || isNew {
		t.Fatalf("dup AddEdge = %v, %v", isNew, err)
	}
	e, _ := m.EdgeBetween(ActivityNode("A"), FragmentNode("F"))
	if e.Via != ViaClick("@id/b") {
		t.Fatalf("Via not upgraded from reflection: %q", e.Via)
	}
	// Explicit via is NOT downgraded back to reflection.
	if _, err := m.AddEdge(ActivityNode("A"), FragmentNode("F"), ViaReflection); err != nil {
		t.Fatal(err)
	}
	e, _ = m.EdgeBetween(ActivityNode("A"), FragmentNode("F"))
	if e.Via != ViaClick("@id/b") {
		t.Fatalf("Via downgraded: %q", e.Via)
	}
}

func hostMap(hosts map[string]string) func(string) (string, bool) {
	return func(f string) (string, bool) {
		h, ok := hosts[f]
		return h, ok
	}
}

func TestMergeEdgeSevenCases(t *testing.T) {
	hosts := hostMap(map[string]string{"F0": "A0", "F1": "A0", "G0": "A1"})

	t.Run("F to internal A dropped", func(t *testing.T) {
		m := New()
		n, err := m.MergeEdge(FragmentNode("F0"), ActivityNode("A0"), ViaIntent, hosts)
		if err != nil || n != 0 {
			t.Fatalf("n=%d err=%v", n, err)
		}
		if len(m.Edges()) != 0 {
			t.Fatalf("edges = %v", m.Edges())
		}
	})
	t.Run("F to external A becomes host E1", func(t *testing.T) {
		m := New()
		n, err := m.MergeEdge(FragmentNode("F0"), ActivityNode("A9"), ViaIntent, hosts)
		if err != nil || n != 1 {
			t.Fatalf("n=%d err=%v", n, err)
		}
		if _, ok := m.EdgeBetween(ActivityNode("A0"), ActivityNode("A9")); !ok {
			t.Fatalf("missing host edge: %v", m.Edges())
		}
	})
	t.Run("F to sibling F is E3", func(t *testing.T) {
		m := New()
		n, err := m.MergeEdge(FragmentNode("F0"), FragmentNode("F1"), ViaClick("@id/t"), hosts)
		if err != nil || n != 1 {
			t.Fatalf("n=%d err=%v", n, err)
		}
		e, ok := m.EdgeBetween(FragmentNode("F0"), FragmentNode("F1"))
		if !ok || e.Kind != E3 {
			t.Fatalf("edge = %+v ok=%v", e, ok)
		}
	})
	t.Run("F to external F splits", func(t *testing.T) {
		m := New()
		n, err := m.MergeEdge(FragmentNode("F0"), FragmentNode("G0"), ViaIntent, hosts)
		if err != nil || n != 2 {
			t.Fatalf("n=%d err=%v edges=%v", n, err, m.Edges())
		}
		if _, ok := m.EdgeBetween(ActivityNode("A0"), ActivityNode("A1")); !ok {
			t.Error("missing A0->A1")
		}
		if _, ok := m.EdgeBetween(ActivityNode("A1"), FragmentNode("G0")); !ok {
			t.Error("missing A1->G0")
		}
	})
	t.Run("A to external F splits", func(t *testing.T) {
		m := New()
		n, err := m.MergeEdge(ActivityNode("A0"), FragmentNode("G0"), ViaIntent, hosts)
		if err != nil || n != 2 {
			t.Fatalf("n=%d err=%v", n, err)
		}
		if _, ok := m.EdgeBetween(ActivityNode("A0"), ActivityNode("A1")); !ok {
			t.Error("missing A0->A1")
		}
		if _, ok := m.EdgeBetween(ActivityNode("A1"), FragmentNode("G0")); !ok {
			t.Error("missing A1->G0")
		}
	})
	t.Run("A to own F is E2", func(t *testing.T) {
		m := New()
		n, err := m.MergeEdge(ActivityNode("A0"), FragmentNode("F0"), ViaTransaction, hosts)
		if err != nil || n != 1 {
			t.Fatalf("n=%d err=%v", n, err)
		}
	})
	t.Run("A to A passes through", func(t *testing.T) {
		m := New()
		n, err := m.MergeEdge(ActivityNode("A0"), ActivityNode("A1"), ViaIntent, hosts)
		if err != nil || n != 1 {
			t.Fatalf("n=%d err=%v", n, err)
		}
	})
	t.Run("unknown host errors", func(t *testing.T) {
		m := New()
		if _, err := m.MergeEdge(FragmentNode("Zz"), FragmentNode("F0"), "", hosts); err == nil {
			t.Error("want error for unknown host")
		}
	})
}

func TestBFSOrder(t *testing.T) {
	m := buildModel(t)
	order := m.BFS()
	if len(order) != 6 {
		t.Fatalf("BFS visited %d nodes: %v", len(order), order)
	}
	if order[0] != ActivityNode("A0") {
		t.Fatalf("BFS starts at %v", order[0])
	}
	// All level-1 nodes precede the level-2 node F2.
	pos := map[Node]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, n := range []Node{ActivityNode("A1"), ActivityNode("A2"), FragmentNode("F0"), FragmentNode("F1")} {
		if pos[n] > pos[FragmentNode("F2")] {
			t.Errorf("level-1 node %v after level-2 node F2", n)
		}
	}
}

func TestPathTo(t *testing.T) {
	m := buildModel(t)
	path := m.PathTo(FragmentNode("F2"))
	if len(path) != 2 {
		t.Fatalf("path = %v", path)
	}
	if path[0].To != ActivityNode("A2") || path[1].To != FragmentNode("F2") {
		t.Fatalf("path = %v", path)
	}
	if p := m.PathTo(ActivityNode("A0")); p == nil || len(p) != 0 {
		t.Fatalf("path to entry = %v", p)
	}
	m.AddNode(ActivityNode("Lonely"))
	if p := m.PathTo(ActivityNode("Lonely")); p != nil {
		t.Fatalf("path to unreachable = %v", p)
	}
}

func TestVisitAndUnvisited(t *testing.T) {
	m := buildModel(t)
	if !m.Visit(ActivityNode("A0")) {
		t.Fatal("first Visit must report new")
	}
	if m.Visit(ActivityNode("A0")) {
		t.Fatal("second Visit must report not-new")
	}
	un := m.Unvisited(KindActivity)
	if len(un) != 2 {
		t.Fatalf("unvisited activities = %v", un)
	}
	if got := m.Count().VisitedActs; got != 1 {
		t.Fatalf("VisitedActs = %d", got)
	}
}

func TestRemoveIsolated(t *testing.T) {
	m := buildModel(t)
	m.AddNode(FragmentNode("IsoF"))
	m.AddNode(ActivityNode("Iso1"))
	m.AddNode(ActivityNode("Iso0"))
	m.Visit(ActivityNode("Iso1"))
	// A10 is numbered after A2 but sorts before it.
	if _, err := m.AddEdge(ActivityNode("A2"), ActivityNode("A10"), ViaIntent); err != nil {
		t.Fatal(err)
	}
	removed := m.RemoveIsolated()
	// Removed nodes come back in Nodes order: Activities first, by name.
	want := []Node{ActivityNode("Iso0"), ActivityNode("Iso1"), FragmentNode("IsoF")}
	if !reflect.DeepEqual(removed, want) {
		t.Fatalf("removed = %v, want %v", removed, want)
	}
	if m.HasNode(ActivityNode("Iso1")) || m.HasNode(FragmentNode("IsoF")) {
		t.Fatal("isolated nodes still present")
	}
	// A node that is only an edge's target is linked, so it stays.
	for _, n := range []Node{ActivityNode("A1"), FragmentNode("F2")} {
		if !m.HasNode(n) {
			t.Errorf("%s, the target of an edge, was removed", n)
		}
	}
	// A removed node leaves no visited mark behind.
	if m.Visited(ActivityNode("Iso1")) {
		t.Error("removed node Iso1 is still marked visited")
	}
	if got := m.Count().VisitedActs; got != 0 {
		t.Errorf("VisitedActs = %d after removing the only visited node", got)
	}
	// The nodes left are numbered in Nodes order.
	for i, n := range m.Nodes() {
		if id, ok := m.ID(n); !ok || id != i {
			t.Errorf("ID(%s) = %d, %v, want %d", n, id, ok, i)
		}
	}
	// Entry survives even when isolated.
	m2 := New()
	if err := m2.SetEntry(ActivityNode("Solo")); err != nil {
		t.Fatal(err)
	}
	if removed := m2.RemoveIsolated(); len(removed) != 0 {
		t.Fatalf("entry removed: %v", removed)
	}
}

func TestDOT(t *testing.T) {
	m := buildModel(t)
	m.Visit(ActivityNode("A0"))
	dot := m.DOT("demo")
	for _, want := range []string{"digraph AFTM", `"A:A0"`, `"F:F2"`, "shape=box", "shape=ellipse", "lightgrey", "E2 transaction"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

// TestCloneIndependence checks that a derived model's writes never reach
// its base: a visit, a new edge, a Via upgrade of a shared edge and a new
// node each stay in the derived model, and so do the edges that two models
// derived from one base insert into the same shared adjacency list.
func TestCloneIndependence(t *testing.T) {
	for _, numbered := range []bool{false, true} {
		base := buildModel(t)
		if numbered {
			base.RemoveIsolated() // numbers the model, as the static phase does
		}
		want := base.DOT("base")
		check := func(t *testing.T) {
			t.Helper()
			if got := base.DOT("base"); got != want {
				t.Fatalf("the base changed:\n%s\nwant\n%s", got, want)
			}
		}
		t.Run(fmt.Sprintf("numbered=%v", numbered), func(t *testing.T) {
			t.Run("visit", func(t *testing.T) {
				d := base.Derive()
				if !d.Visit(ActivityNode("A1")) || !d.Visited(ActivityNode("A1")) {
					t.Fatal("the derived model lost its visit")
				}
				check(t)
			})
			t.Run("new edge", func(t *testing.T) {
				d := base.Derive()
				if isNew, err := d.AddEdge(ActivityNode("A1"), ActivityNode("A2"), ViaIntent); err != nil || !isNew {
					t.Fatalf("AddEdge = %v, %v", isNew, err)
				}
				if _, ok := d.EdgeBetween(ActivityNode("A1"), ActivityNode("A2")); !ok {
					t.Fatal("the derived model lost its edge")
				}
				check(t)
			})
			t.Run("via upgrade of a shared edge", func(t *testing.T) {
				d := base.Derive()
				if _, err := d.AddEdge(ActivityNode("A0"), FragmentNode("F0"), ViaClick("@id/f0")); err != nil {
					t.Fatal(err)
				}
				if e, _ := d.EdgeBetween(ActivityNode("A0"), FragmentNode("F0")); e.Via != ViaClick("@id/f0") {
					t.Fatalf("derived Via = %q", e.Via)
				}
				if e, _ := base.EdgeBetween(ActivityNode("A0"), FragmentNode("F0")); e.Via != ViaTransaction {
					t.Fatalf("base Via = %q", e.Via)
				}
				check(t)
			})
			t.Run("new node", func(t *testing.T) {
				d := base.Derive()
				if _, err := d.AddEdge(ActivityNode("A1"), ActivityNode("A9"), ViaIntent); err != nil {
					t.Fatal(err)
				}
				d.Visit(FragmentNode("F00"))
				if got, want := d.Activities(), []string{"A0", "A1", "A2", "A9"}; !reflect.DeepEqual(got, want) {
					t.Fatalf("derived Activities = %v, want %v", got, want)
				}
				if got, want := d.Fragments(), []string{"F0", "F00", "F1", "F2"}; !reflect.DeepEqual(got, want) {
					t.Fatalf("derived Fragments = %v, want %v", got, want)
				}
				if base.HasNode(ActivityNode("A9")) || base.HasNode(FragmentNode("F00")) {
					t.Fatal("the base shares the derived model's nodes")
				}
				check(t)
			})
			t.Run("two derived models", func(t *testing.T) {
				d1, d2 := base.Derive(), base.Derive()
				if _, err := d1.AddEdge(ActivityNode("A0"), ActivityNode("A3"), ViaIntent); err != nil {
					t.Fatal(err)
				}
				if _, err := d2.AddEdge(ActivityNode("A0"), ActivityNode("A4"), ViaIntent); err != nil {
					t.Fatal(err)
				}
				if _, ok := d1.EdgeBetween(ActivityNode("A0"), ActivityNode("A4")); ok {
					t.Fatal("d1 sees d2's edge")
				}
				if _, ok := d2.EdgeBetween(ActivityNode("A0"), ActivityNode("A3")); ok {
					t.Fatal("d2 sees d1's edge")
				}
				if got := len(d1.Edges()); got != 7 {
					t.Fatalf("d1 has %d edges, want 7", got)
				}
				check(t)
			})
		})
		if !reflect.DeepEqual(base.BFS(), buildModel(t).BFS()) {
			t.Fatal("the base's traversal changed")
		}
	}
}

func TestNodesOrdering(t *testing.T) {
	m := buildModel(t)
	nodes := m.Nodes()
	// Activities first, then fragments, each sorted.
	sawFragment := false
	for _, n := range nodes {
		if n.Kind == KindFragment {
			sawFragment = true
		} else if sawFragment {
			t.Fatalf("activity after fragment in %v", nodes)
		}
	}
	if !reflect.DeepEqual(m.Activities(), []string{"A0", "A1", "A2"}) {
		t.Fatalf("Activities = %v", m.Activities())
	}
	if !reflect.DeepEqual(m.Fragments(), []string{"F0", "F1", "F2"}) {
		t.Fatalf("Fragments = %v", m.Fragments())
	}
}

// Property: BFS from the entry reaches exactly the set of nodes with a
// non-nil PathTo, and every returned path starts at the entry and is
// edge-connected.
func TestQuickBFSPathAgreement(t *testing.T) {
	f := func(edges [][2]uint8) bool {
		m := New()
		if err := m.SetEntry(ActivityNode("A0")); err != nil {
			return false
		}
		names := []string{"A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7"}
		for _, e := range edges {
			from := names[int(e[0])%len(names)]
			to := names[int(e[1])%len(names)]
			if from == to {
				continue
			}
			if _, err := m.AddEdge(ActivityNode(from), ActivityNode(to), ViaIntent); err != nil {
				return false
			}
		}
		reach := make(map[Node]bool)
		for _, n := range m.BFS() {
			reach[n] = true
		}
		for _, n := range m.Nodes() {
			p := m.PathTo(n)
			if reach[n] != (p != nil) {
				return false
			}
			if p == nil {
				continue
			}
			cur := ActivityNode("A0")
			for _, e := range p {
				if e.From != cur {
					return false
				}
				cur = e.To
			}
			if cur != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
