// Package aftm implements the Activity & Fragment Transition Model of the
// paper (Definition 1, §IV): a finite state model ⟨A, F, E⟩ whose nodes are
// working Activities and Fragments and whose edges are the three basic
// transition relationships
//
//	E1: A → A   (outer: from an Activity to another Activity)
//	E2: A → F_i (inner: from an Activity to its own Fragment)
//	E3: F → F_i (inner: between Fragments of one Activity)
//
// The seven concrete transition types observed in apps are merged into these
// three by MergeEdge, following §IV-A. The model is evolutionary: the dynamic
// phase adds nodes and edges as it discovers them and marks nodes visited,
// and the exploration queue is (re)built from the model by breadth-first
// search.
package aftm

import (
	"fmt"
	"sort"
	"strings"
)

// NodeKind distinguishes Activity and Fragment nodes.
type NodeKind int

const (
	// KindActivity marks Activity nodes (the A set).
	KindActivity NodeKind = iota + 1
	// KindFragment marks Fragment nodes (the F set).
	KindFragment
)

// String returns "A" or "F".
func (k NodeKind) String() string {
	switch k {
	case KindActivity:
		return "A"
	case KindFragment:
		return "F"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node identifies one model node by kind and class name.
type Node struct {
	Kind NodeKind
	// Name is the fully qualified class name.
	Name string
}

// ActivityNode constructs an Activity node.
func ActivityNode(name string) Node { return Node{Kind: KindActivity, Name: name} }

// FragmentNode constructs a Fragment node.
func FragmentNode(name string) Node { return Node{Kind: KindFragment, Name: name} }

// String renders the node as "A:name" or "F:name".
func (n Node) String() string { return n.Kind.String() + ":" + n.Name }

// EdgeKind is one of the three basic transition relationships.
type EdgeKind int

const (
	// E1 is A → A (outer).
	E1 EdgeKind = iota + 1
	// E2 is A → F_i (inner).
	E2
	// E3 is F → F_i (inner).
	E3
)

// String returns "E1", "E2" or "E3".
func (k EdgeKind) String() string {
	switch k {
	case E1:
		return "E1"
	case E2:
		return "E2"
	case E3:
		return "E3"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Edge is a transition between two nodes.
type Edge struct {
	Kind EdgeKind
	From Node
	To   Node
	// Via documents how the transition is performed: "intent",
	// "action:<name>", "transaction", "click:<widget>", "reflection",
	// "forced-start", ... The dynamic phase refines Via when it learns an
	// explicit UI operation for an edge first found statically.
	Via string
}

// String renders "A:x -E2-> F:y [via]".
func (e Edge) String() string {
	s := fmt.Sprintf("%s -%s-> %s", e.From, e.Kind, e.To)
	if e.Via != "" {
		s += " [" + e.Via + "]"
	}
	return s
}

// key identifies an edge regardless of Via.
type edgeKey struct {
	kind     EdgeKind
	from, to Node
}

// Model is the AFTM: node sets, edges, entry node, and visited bookkeeping.
type Model struct {
	entry    Node
	hasEntry bool
	nodes    map[Node]bool
	visited  map[Node]bool
	edges    map[edgeKey]*Edge
	// outAdj holds each node's outgoing edges pre-sorted by (To.Kind,
	// To.Name) — the same order sorting by To.String() produces, since the
	// kind prefix ("A:" < "F:") agrees with KindActivity < KindFragment and
	// a node never has two edges to the same target. The slices share *Edge
	// pointers with m.edges so Via upgrades stay visible. Keeping the order
	// an insertion invariant makes BFS, Paths and PathTo sort-free;
	// per-call sorting here dominated the warm exploration profile.
	outAdj map[Node][]*Edge
}

// New returns an empty model.
func New() *Model {
	return &Model{
		nodes:   make(map[Node]bool),
		visited: make(map[Node]bool),
		edges:   make(map[edgeKey]*Edge),
		outAdj:  make(map[Node][]*Edge),
	}
}

// SetEntry declares the entry Activity A0. The node is added if absent.
func (m *Model) SetEntry(n Node) error {
	if n.Kind != KindActivity {
		return fmt.Errorf("aftm: entry node %s is not an Activity", n)
	}
	m.AddNode(n)
	m.entry = n
	m.hasEntry = true
	return nil
}

// Entry returns the entry node; ok is false if none was set.
func (m *Model) Entry() (Node, bool) { return m.entry, m.hasEntry }

// AddNode inserts a node; adding an existing node is a no-op. It reports
// whether the node was new.
func (m *Model) AddNode(n Node) bool {
	if m.nodes[n] {
		return false
	}
	m.nodes[n] = true
	return true
}

// HasNode reports node membership.
func (m *Model) HasNode(n Node) bool { return m.nodes[n] }

// classify derives the EdgeKind for a (from, to) pair per Definition 1.
func classify(from, to Node) (EdgeKind, error) {
	switch {
	case from.Kind == KindActivity && to.Kind == KindActivity:
		return E1, nil
	case from.Kind == KindActivity && to.Kind == KindFragment:
		return E2, nil
	case from.Kind == KindFragment && to.Kind == KindFragment:
		return E3, nil
	default:
		return 0, fmt.Errorf("aftm: no basic edge for %s -> %s (merge first)", from, to)
	}
}

// AddEdge inserts a transition, adding both endpoints as needed. Duplicate
// edges are merged; the Via label is upgraded when the new one is more
// concrete: statically derived labels (intent, transaction, action:*) are
// weakest, the implicit mechanisms (reflection, forced-start) stronger, and
// an explicit UI click strongest — the paper prefers explicit clicking
// transitions over the implicit reflection mechanism (§VI-A Case 2). It
// reports whether the edge (not just Via) was new.
func (m *Model) AddEdge(from, to Node, via string) (bool, error) {
	kind, err := classify(from, to)
	if err != nil {
		return false, err
	}
	if from == to {
		return false, fmt.Errorf("aftm: self edge on %s", from)
	}
	m.AddNode(from)
	m.AddNode(to)
	k := edgeKey{kind: kind, from: from, to: to}
	if e, ok := m.edges[k]; ok {
		if viaRank(via) > viaRank(e.Via) {
			e.Via = via
		}
		return false, nil
	}
	e := &Edge{Kind: kind, From: from, To: to, Via: via}
	m.edges[k] = e
	adj := m.outAdj[from]
	i := sort.Search(len(adj), func(i int) bool {
		if adj[i].To.Kind != to.Kind {
			return adj[i].To.Kind > to.Kind
		}
		return adj[i].To.Name > to.Name
	})
	adj = append(adj, nil)
	copy(adj[i+1:], adj[i:])
	adj[i] = e
	m.outAdj[from] = adj
	return true, nil
}

// viaRank orders Via labels by concreteness.
func viaRank(via string) int {
	switch {
	case strings.HasPrefix(via, "click:"):
		return 3
	case via == ViaReflection, via == ViaForcedStart:
		return 2
	case via != "":
		return 1
	default:
		return 0
	}
}

// Common Via labels.
const (
	ViaIntent      = "intent"
	ViaTransaction = "transaction"
	ViaReflection  = "reflection"
	ViaForcedStart = "forced-start"
)

// ViaAction renders the Via label for an implicit intent action.
func ViaAction(action string) string { return "action:" + action }

// ViaClick renders the Via label for a UI click on a widget.
func ViaClick(widgetRef string) string { return "click:" + widgetRef }

// MergeEdge folds any of the seven concrete transition types into the three
// basic edges of Definition 1 and inserts the result:
//
//	A → A        E1 as-is
//	A → F_i      E2 as-is
//	F → F_i      E3 as-is
//	F → A_i      dropped (must go through the host Activity)
//	F → A_o      treated as host(F) → A_o, i.e. E1
//	F → F_o      treated as host(F) → F_o, i.e. E2 (into the other Activity)
//	A → F_o      split into A → host(F_o) (E1) and host(F_o) → F_o (E2)
//
// host maps a Fragment to its hosting Activity and otherHost maps an external
// Fragment to the Activity that owns it. It reports how many edges were new.
func (m *Model) MergeEdge(from, to Node, via string, host func(frag string) (string, bool)) (int, error) {
	added := 0
	add := func(f, t Node, v string) error {
		isNew, err := m.AddEdge(f, t, v)
		if err != nil {
			return err
		}
		if isNew {
			added++
		}
		return nil
	}
	switch {
	case from.Kind == KindActivity && to.Kind == KindActivity:
		return added, add(from, to, via)
	case from.Kind == KindFragment && to.Kind == KindActivity:
		// F → A: find the host; internal transitions (host == target) are
		// dropped, external ones become host → A_o.
		h, ok := host(from.Name)
		if !ok {
			return added, fmt.Errorf("aftm: fragment %s has no host activity", from.Name)
		}
		if h == to.Name {
			return added, nil // F → A_i: ignored per §IV-A
		}
		return added, add(ActivityNode(h), to, via)
	case from.Kind == KindFragment && to.Kind == KindFragment:
		fh, ok := host(from.Name)
		if !ok {
			return added, fmt.Errorf("aftm: fragment %s has no host activity", from.Name)
		}
		th, ok := host(to.Name)
		if !ok {
			return added, fmt.Errorf("aftm: fragment %s has no host activity", to.Name)
		}
		if fh == th {
			return added, add(from, to, via) // E3
		}
		// F → F_o: host(F) → F_o, which itself is A → F_o and splits.
		if err := add(ActivityNode(fh), ActivityNode(th), via); err != nil {
			return added, err
		}
		return added, add(ActivityNode(th), to, ViaTransaction)
	case from.Kind == KindActivity && to.Kind == KindFragment:
		th, ok := host(to.Name)
		if !ok {
			return added, fmt.Errorf("aftm: fragment %s has no host activity", to.Name)
		}
		if th == from.Name {
			return added, add(from, to, via) // E2
		}
		// A → F_o: A → host (E1) plus host → F (E2).
		if err := add(from, ActivityNode(th), via); err != nil {
			return added, err
		}
		return added, add(ActivityNode(th), to, ViaTransaction)
	}
	return added, fmt.Errorf("aftm: unreachable merge case %s -> %s", from, to)
}

// Visit marks a node visited, reporting whether it was previously unvisited.
func (m *Model) Visit(n Node) bool {
	if !m.nodes[n] {
		m.AddNode(n)
	}
	if m.visited[n] {
		return false
	}
	m.visited[n] = true
	return true
}

// Visited reports whether the node has been visited.
func (m *Model) Visited(n Node) bool { return m.visited[n] }

// Nodes returns all nodes, Activities first, each group sorted by name.
func (m *Model) Nodes() []Node {
	out := make([]Node, 0, len(m.nodes))
	for n := range m.nodes {
		out = append(out, n)
	}
	sortNodes(out)
	return out
}

// sortNodes sorts nodes Activities first, each group by name.
func sortNodes(ns []Node) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Kind != ns[j].Kind {
			return ns[i].Kind < ns[j].Kind
		}
		return ns[i].Name < ns[j].Name
	})
}

// Activities returns the A set, sorted.
func (m *Model) Activities() []string { return m.namesOf(KindActivity) }

// Fragments returns the F set, sorted.
func (m *Model) Fragments() []string { return m.namesOf(KindFragment) }

func (m *Model) namesOf(k NodeKind) []string {
	var out []string
	for n := range m.nodes {
		if n.Kind == k {
			out = append(out, n.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Edges returns all edges sorted by (kind, from, to).
func (m *Model) Edges() []Edge {
	out := make([]Edge, 0, len(m.edges))
	for _, e := range m.edges {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.From != b.From {
			return a.From.String() < b.From.String()
		}
		return a.To.String() < b.To.String()
	})
	return out
}

// EdgeBetween returns the edge from → to if present.
func (m *Model) EdgeBetween(from, to Node) (Edge, bool) {
	kind, err := classify(from, to)
	if err != nil {
		return Edge{}, false
	}
	e, ok := m.edges[edgeKey{kind: kind, from: from, to: to}]
	if !ok {
		return Edge{}, false
	}
	return *e, true
}

// RemoveIsolated deletes nodes with degree 0, except the entry node; the
// paper filters out "isolated Activities ... not linked by any edge"
// (§IV-B2). It returns the removed nodes in Nodes order. One pass over the
// edges marks the linked nodes, so the cost is linear in nodes plus edges.
func (m *Model) RemoveIsolated() []Node {
	linked := make(map[Node]bool, len(m.nodes))
	for _, e := range m.edges {
		linked[e.From] = true
		linked[e.To] = true
	}
	var removed []Node
	for n := range m.nodes {
		if !linked[n] && !(m.hasEntry && n == m.entry) {
			removed = append(removed, n)
		}
	}
	sortNodes(removed)
	for _, n := range removed {
		delete(m.nodes, n)
		delete(m.visited, n)
	}
	return removed
}

// Counts summarizes the model.
type Counts struct {
	Activities, Fragments    int
	VisitedActs, VisitedFrag int
	E1, E2, E3               int
}

// Count computes the model summary.
func (m *Model) Count() Counts {
	var c Counts
	for n := range m.nodes {
		switch n.Kind {
		case KindActivity:
			c.Activities++
			if m.visited[n] {
				c.VisitedActs++
			}
		case KindFragment:
			c.Fragments++
			if m.visited[n] {
				c.VisitedFrag++
			}
		}
	}
	for _, e := range m.edges {
		switch e.Kind {
		case E1:
			c.E1++
		case E2:
			c.E2++
		case E3:
			c.E3++
		}
	}
	return c
}

// BFS returns nodes reachable from the entry in breadth-first order together
// with, for each node, the edge path from the entry. The queue-generation
// module of the paper traverses "the initial AFTM by breadth-first search"
// and pushes one item per newly discovered node; PathTo supplies that item's
// operation skeleton.
func (m *Model) BFS() []Node {
	if !m.hasEntry {
		return nil
	}
	var order []Node
	seen := map[Node]bool{m.entry: true}
	queue := []Node{m.entry}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, e := range m.outAdj[n] {
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return order
}

// Paths computes the breadth-first order and, for every reachable node, the
// shortest edge path from the entry — one traversal instead of one PathTo
// per node. The returned order is exactly BFS(), and each path is exactly
// what PathTo would return for that node: both walk the same sorted
// adjacency, so the discovery tree is identical; PathTo merely stops early.
// The entry maps to an empty, non-nil path.
func (m *Model) Paths() ([]Node, map[Node][]Edge) {
	if !m.hasEntry {
		return nil, nil
	}
	prev := make(map[Node]Edge)
	seen := map[Node]bool{m.entry: true}
	order := []Node{m.entry}
	for i := 0; i < len(order); i++ {
		n := order[i]
		for _, e := range m.outAdj[n] {
			if !seen[e.To] {
				seen[e.To] = true
				prev[e.To] = *e
				order = append(order, e.To)
			}
		}
	}
	pathOf := make(map[Node][]Edge, len(order))
	pathOf[m.entry] = []Edge{}
	// Nodes appear in order after their predecessors, so each path extends an
	// already-built one by a single edge.
	for _, n := range order[1:] {
		e := prev[n]
		base := pathOf[e.From]
		path := make([]Edge, len(base)+1)
		copy(path, base)
		path[len(base)] = e
		pathOf[n] = path
	}
	return order, pathOf
}

// PathTo returns a shortest edge path from the entry to target, or nil if
// target is unreachable in the model.
func (m *Model) PathTo(target Node) []Edge {
	if !m.hasEntry {
		return nil
	}
	if target == m.entry {
		return []Edge{}
	}
	prev := make(map[Node]Edge)
	seen := map[Node]bool{m.entry: true}
	queue := []Node{m.entry}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range m.outAdj[n] {
			if seen[e.To] {
				continue
			}
			seen[e.To] = true
			prev[e.To] = *e
			if e.To == target {
				return rebuild(prev, m.entry, target)
			}
			queue = append(queue, e.To)
		}
	}
	return nil
}

func rebuild(prev map[Node]Edge, entry, target Node) []Edge {
	var rev []Edge
	for cur := target; cur != entry; {
		e := prev[cur]
		rev = append(rev, e)
		cur = e.From
	}
	out := make([]Edge, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// Unvisited returns nodes of the given kind that are not visited, sorted.
func (m *Model) Unvisited(kind NodeKind) []Node {
	var out []Node
	for n := range m.nodes {
		if n.Kind == kind && !m.visited[n] {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DOT renders the model in Graphviz DOT form (Figure 5 of the paper is a
// drawing of such a graph). Visited nodes are filled.
func (m *Model) DOT(title string) string {
	var b strings.Builder
	b.WriteString("digraph AFTM {\n")
	fmt.Fprintf(&b, "  label=%q;\n", title)
	b.WriteString("  rankdir=LR;\n")
	for _, n := range m.Nodes() {
		attrs := []string{fmt.Sprintf("label=%q", n.Name)}
		if n.Kind == KindActivity {
			attrs = append(attrs, "shape=box")
		} else {
			attrs = append(attrs, "shape=ellipse")
		}
		if m.visited[n] {
			attrs = append(attrs, "style=filled", `fillcolor="lightgrey"`)
		}
		if m.hasEntry && n == m.entry {
			attrs = append(attrs, "penwidth=2")
		}
		fmt.Fprintf(&b, "  %q [%s];\n", n.String(), strings.Join(attrs, ", "))
	}
	for _, e := range m.Edges() {
		fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", e.From.String(), e.To.String(),
			e.Kind.String()+" "+e.Via)
	}
	b.WriteString("}\n")
	return b.String()
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	nm := New()
	nm.entry, nm.hasEntry = m.entry, m.hasEntry
	for n := range m.nodes {
		nm.nodes[n] = true
	}
	for n := range m.visited {
		nm.visited[n] = true
	}
	for k, e := range m.edges {
		cp := *e
		nm.edges[k] = &cp
	}
	for n, adj := range m.outAdj {
		nadj := make([]*Edge, len(adj))
		for i, e := range adj {
			// Point at the clone's own Edge so later Via upgrades on the
			// clone stay confined to it; order carries over unchanged.
			nadj[i] = nm.edges[edgeKey{kind: e.Kind, from: e.From, to: e.To}]
		}
		nm.outAdj[n] = nadj
	}
	return nm
}
