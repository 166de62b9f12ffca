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

// Model is the AFTM: node sets, edges, entry node, and visited bookkeeping.
//
// Nodes are numbered densely: a node's id indexes the node table, the
// adjacency lists and the visited bitset. RemoveIsolated numbers the nodes
// in Nodes order, Activities first and each kind sorted by name, and
// DecodeModel numbers them in the order EncodeModel wrote, the same one, so
// a static model's ids are already in walking order. A node added later
// takes the next free id, and order keeps every walk sorted.
type Model struct {
	entry int32 // the entry node's id, or -1
	// nodes is the node table, index its inverse, and order the ids in
	// Nodes order.
	nodes []Node
	index map[Node]int32
	order []int32
	// edges holds every edge once. adj[id] lists the indices of the edges
	// leaving node id, ordered by (To.Kind, To.Name): the order sorting by
	// To.String() produces, since the kind prefix ("A:" < "F:") agrees with
	// KindActivity < KindFragment and a node never has two edges to the same
	// target. Keeping that order an insertion invariant makes BFS, Paths,
	// PathTo and Edges sort-free.
	edges   []edge
	adj     [][]int32
	visited bitset
	// shared marks the parts a derived model still reads from its base.
	shared part
}

// edge is an Edge by node ids.
type edge struct {
	kind     EdgeKind
	from, to int32
	via      string
}

// part names storage that a derived model shares with its base until its
// first write to it.
type part uint8

const (
	partNodes part = 1 << iota // nodes, index and order
	partEdges                  // edges
	partAdj                    // adj
)

// bitset is a set of node ids.
type bitset []uint64

func words(n int) int { return (n + 63) / 64 }

func (b bitset) has(id int32) bool {
	w := int(id >> 6)
	return w < len(b) && b[w]&(1<<(uint(id)&63)) != 0
}

// set adds id, reporting whether it was absent.
func (b *bitset) set(id int32) bool {
	w := int(id >> 6)
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	bit := uint64(1) << (uint(id) & 63)
	if (*b)[w]&bit != 0 {
		return false
	}
	(*b)[w] |= bit
	return true
}

// New returns an empty model.
func New() *Model {
	return &Model{entry: -1, index: make(map[Node]int32)}
}

// Derive returns a model that starts equal to m and shares its node table,
// edges and adjacency lists. The derived model copies each of those parts
// on its own first write to it (a new node, a new edge, or a Via upgrade),
// and it keeps visited marks of its own, so nothing it does reaches m. Any
// number of models derived from one base may be used at once, from any
// goroutines, as long as the base itself is no longer written.
func (m *Model) Derive() *Model {
	d := *m
	d.visited = make(bitset, words(len(m.nodes)))
	copy(d.visited, m.visited)
	d.shared = partNodes | partEdges | partAdj
	return &d
}

// own copies the parts among p that m still shares with its base, so that a
// write never reaches the base's storage. Each copy has room for the few
// writes an exploration makes after its first. Each adjacency list stays
// shared but clipped, so an insertion into it reallocates.
func (m *Model) own(p part) {
	p &= m.shared
	if p == 0 {
		return
	}
	m.shared &^= p
	if p&partNodes != 0 {
		m.nodes = append(make([]Node, 0, len(m.nodes)+4), m.nodes...)
		m.order = append(make([]int32, 0, len(m.order)+4), m.order...)
		index := make(map[Node]int32, len(m.index)+4)
		for n, id := range m.index {
			index[n] = id
		}
		m.index = index
	}
	if p&partEdges != 0 {
		m.edges = append(make([]edge, 0, len(m.edges)+8), m.edges...)
	}
	if p&partAdj != 0 {
		adj := make([][]int32, len(m.adj), len(m.adj)+4)
		for i, a := range m.adj {
			adj[i] = a[:len(a):len(a)]
		}
		m.adj = adj
	}
}

// less orders nodes as Nodes does: Activities first, each kind by name.
func less(a, b Node) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Name < b.Name
}

// add returns n's id, numbering n next if it is new.
func (m *Model) add(n Node) (int32, bool) {
	if id, ok := m.index[n]; ok {
		return id, false
	}
	m.own(partNodes | partAdj)
	id := int32(len(m.nodes))
	m.nodes = append(m.nodes, n)
	m.index[n] = id
	m.adj = append(m.adj, nil)
	i := len(m.order)
	if i > 0 && less(n, m.nodes[m.order[i-1]]) {
		i = sort.Search(len(m.order), func(i int) bool { return less(n, m.nodes[m.order[i]]) })
	}
	m.order = append(m.order, 0)
	copy(m.order[i+1:], m.order[i:])
	m.order[i] = id
	return id, true
}

// renumber numbers the nodes keep holds in Nodes order and drops the
// others, which must have no edges.
func (m *Model) renumber(keep bitset) {
	m.own(partNodes | partEdges)
	newID := make([]int32, len(m.nodes))
	n := 0
	for _, id := range m.order {
		if !keep.has(id) {
			newID[id] = -1
			delete(m.index, m.nodes[id])
			continue
		}
		newID[id] = int32(n)
		n++
	}
	nodes := make([]Node, n)
	order := make([]int32, n)
	adj := make([][]int32, n)
	var visited bitset
	for _, old := range m.order {
		if id := newID[old]; id >= 0 {
			nodes[id], order[id], adj[id] = m.nodes[old], id, m.adj[old]
			m.index[m.nodes[old]] = id
			if m.visited.has(old) {
				visited.set(id)
			}
		}
	}
	for i := range m.edges {
		e := &m.edges[i]
		e.from, e.to = newID[e.from], newID[e.to]
	}
	if m.entry >= 0 {
		m.entry = newID[m.entry]
	}
	m.nodes, m.order, m.adj, m.visited, m.shared = nodes, order, adj, visited, 0
}

// SetEntry declares the entry Activity A0. The node is added if absent.
func (m *Model) SetEntry(n Node) error {
	if n.Kind != KindActivity {
		return fmt.Errorf("aftm: entry node %s is not an Activity", n)
	}
	m.entry, _ = m.add(n)
	return nil
}

// Entry returns the entry node; ok is false if none was set.
func (m *Model) Entry() (Node, bool) {
	if m.entry < 0 {
		return Node{}, false
	}
	return m.nodes[m.entry], true
}

// AddNode inserts a node and returns its id; adding an existing node is a
// no-op. added reports whether the node was new.
func (m *Model) AddNode(n Node) (id int, added bool) {
	i, added := m.add(n)
	return int(i), added
}

// HasNode reports node membership.
func (m *Model) HasNode(n Node) bool {
	_, ok := m.index[n]
	return ok
}

// ID returns the id of node n; ok is false if n is not in the model.
func (m *Model) ID(n Node) (id int, ok bool) {
	i, ok := m.index[n]
	return int(i), ok
}

// Len returns the number of nodes, one more than the largest id.
func (m *Model) Len() int { return len(m.nodes) }

// NodeOf returns the node numbered id.
func (m *Model) NodeOf(id int) Node { return m.nodes[id] }

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
	f, _ := m.add(from)
	t, _ := m.add(to)
	return m.link(kind, f, t, via), nil
}

// link inserts the edge f → t of the given kind into f's sorted adjacency
// list, or upgrades the Via label of the edge already there. It reports
// whether the edge was new.
func (m *Model) link(kind EdgeKind, f, t int32, via string) bool {
	adj := m.adj[f]
	to := m.nodes[t]
	i := sort.Search(len(adj), func(i int) bool { return !less(m.nodes[m.edges[adj[i]].to], to) })
	if i < len(adj) && m.edges[adj[i]].to == t {
		if viaRank(via) > viaRank(m.edges[adj[i]].via) {
			m.own(partEdges)
			m.edges[adj[i]].via = via
		}
		return false
	}
	m.own(partEdges | partAdj)
	m.edges = append(m.edges, edge{kind: kind, from: f, to: t, via: via})
	adj = append(m.adj[f], 0)
	copy(adj[i+1:], adj[i:])
	adj[i] = int32(len(m.edges) - 1)
	m.adj[f] = adj
	return true
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

// Visit marks a node visited, adding it if absent, and reports whether it
// was previously unvisited.
func (m *Model) Visit(n Node) bool {
	id, _ := m.add(n)
	return m.visited.set(id)
}

// VisitID marks the node numbered id visited, reporting whether it was
// previously unvisited.
func (m *Model) VisitID(id int) bool { return m.visited.set(int32(id)) }

// Visited reports whether the node has been visited.
func (m *Model) Visited(n Node) bool {
	id, ok := m.index[n]
	return ok && m.visited.has(id)
}

// VisitedID reports whether the node numbered id has been visited.
func (m *Model) VisitedID(id int) bool { return m.visited.has(int32(id)) }

// Walk calls fn on every node with its id, in Nodes order. fn must not add
// nodes.
func (m *Model) Walk(fn func(id int, n Node)) {
	for _, id := range m.order {
		fn(int(id), m.nodes[id])
	}
}

// Nodes returns all nodes, Activities first, each group sorted by name.
func (m *Model) Nodes() []Node {
	out := make([]Node, len(m.order))
	for i, id := range m.order {
		out[i] = m.nodes[id]
	}
	return out
}

// Activities returns the A set, sorted.
func (m *Model) Activities() []string { return m.namesOf(KindActivity) }

// Fragments returns the F set, sorted.
func (m *Model) Fragments() []string { return m.namesOf(KindFragment) }

func (m *Model) namesOf(k NodeKind) []string {
	n := 0
	for _, node := range m.nodes {
		if node.Kind == k {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, id := range m.order {
		if n := m.nodes[id]; n.Kind == k {
			out = append(out, n.Name)
		}
	}
	return out
}

// edgeAt returns edge i as an Edge.
func (m *Model) edgeAt(i int32) Edge {
	e := &m.edges[i]
	return Edge{Kind: e.kind, From: m.nodes[e.from], To: m.nodes[e.to], Via: e.via}
}

// eachEdge calls fn on every edge in Edges order: by kind, then by source,
// then by target, sources and targets in Nodes order.
func (m *Model) eachEdge(fn func(e *edge)) {
	for k := E1; k <= E3; k++ {
		for _, id := range m.order {
			for _, i := range m.adj[id] {
				if e := &m.edges[i]; e.kind == k {
					fn(e)
				}
			}
		}
	}
}

// Edges returns all edges sorted by (kind, from, to).
func (m *Model) Edges() []Edge {
	out := make([]Edge, 0, len(m.edges))
	m.eachEdge(func(e *edge) {
		out = append(out, Edge{Kind: e.kind, From: m.nodes[e.from], To: m.nodes[e.to], Via: e.via})
	})
	return out
}

// EdgeBetween returns the edge from → to if present.
func (m *Model) EdgeBetween(from, to Node) (Edge, bool) {
	f, ok := m.index[from]
	if !ok {
		return Edge{}, false
	}
	t, ok := m.index[to]
	if !ok {
		return Edge{}, false
	}
	for _, i := range m.adj[f] {
		if m.edges[i].to == t {
			return m.edgeAt(i), true
		}
	}
	return Edge{}, false
}

// RemoveIsolated deletes nodes with degree 0, except the entry node; the
// paper filters out "isolated Activities ... not linked by any edge"
// (§IV-B2). It returns the removed nodes in Nodes order and numbers the
// remaining nodes in that order. One pass over the edges marks the linked
// nodes, so the cost is linear in nodes plus edges.
func (m *Model) RemoveIsolated() []Node {
	linked := make(bitset, words(len(m.nodes)))
	for _, e := range m.edges {
		linked.set(e.from)
		linked.set(e.to)
	}
	if m.entry >= 0 {
		linked.set(m.entry)
	}
	var removed []Node
	for _, id := range m.order {
		if !linked.has(id) {
			removed = append(removed, m.nodes[id])
		}
	}
	m.renumber(linked)
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
	for id, n := range m.nodes {
		visited := m.visited.has(int32(id))
		switch n.Kind {
		case KindActivity:
			c.Activities++
			if visited {
				c.VisitedActs++
			}
		case KindFragment:
			c.Fragments++
			if visited {
				c.VisitedFrag++
			}
		}
	}
	for _, e := range m.edges {
		switch e.kind {
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

// tree walks the model breadth-first from the entry along the sorted
// adjacency lists. It returns the ids reached, in discovery order, and for
// each node the index of the edge that discovered it (-1 for the entry and
// for the nodes not reached). The model must have an entry.
func (m *Model) tree() (reached, via []int32) {
	via = make([]int32, len(m.nodes))
	for i := range via {
		via[i] = -1
	}
	seen := make(bitset, words(len(m.nodes)))
	seen.set(m.entry)
	reached = append(make([]int32, 0, len(m.nodes)), m.entry)
	for i := 0; i < len(reached); i++ {
		for _, e := range m.adj[reached[i]] {
			if t := m.edges[e].to; seen.set(t) {
				via[t] = e
				reached = append(reached, t)
			}
		}
	}
	return reached, via
}

// BFS returns nodes reachable from the entry in breadth-first order together
// with, for each node, the edge path from the entry. The queue-generation
// module of the paper traverses "the initial AFTM by breadth-first search"
// and pushes one item per newly discovered node; PathTo supplies that item's
// operation skeleton.
func (m *Model) BFS() []Node {
	if m.entry < 0 {
		return nil
	}
	reached, _ := m.tree()
	order := make([]Node, len(reached))
	for i, id := range reached {
		order[i] = m.nodes[id]
	}
	return order
}

// Paths computes the breadth-first order and, for every reachable node, the
// shortest edge path from the entry — one traversal instead of one PathTo
// per node. The returned order is exactly BFS(), and each path is exactly
// what PathTo would return for that node: both follow the same discovery
// tree. The entry maps to an empty, non-nil path.
func (m *Model) Paths() ([]Node, map[Node][]Edge) {
	if m.entry < 0 {
		return nil, nil
	}
	reached, via := m.tree()
	order := make([]Node, len(reached))
	pathOf := make(map[Node][]Edge, len(reached))
	paths := make([][]Edge, len(m.nodes))
	paths[m.entry] = []Edge{}
	// Nodes are reached after their predecessors, so each path extends an
	// already-built one by a single edge.
	for i, id := range reached {
		if i > 0 {
			base := paths[m.edges[via[id]].from]
			path := make([]Edge, len(base)+1)
			copy(path, base)
			path[len(base)] = m.edgeAt(via[id])
			paths[id] = path
		}
		order[i] = m.nodes[id]
		pathOf[order[i]] = paths[id]
	}
	return order, pathOf
}

// PathTo returns a shortest edge path from the entry to target, or nil if
// target is unreachable in the model.
func (m *Model) PathTo(target Node) []Edge {
	if m.entry < 0 {
		return nil
	}
	t, ok := m.index[target]
	if !ok {
		return nil
	}
	if t == m.entry {
		return []Edge{}
	}
	_, via := m.tree()
	if via[t] < 0 {
		return nil
	}
	n := 0
	for cur := t; cur != m.entry; cur = m.edges[via[cur]].from {
		n++
	}
	path := make([]Edge, n)
	for cur := t; cur != m.entry; cur = m.edges[via[cur]].from {
		n--
		path[n] = m.edgeAt(via[cur])
	}
	return path
}

// Unvisited returns nodes of the given kind that are not visited, sorted.
func (m *Model) Unvisited(kind NodeKind) []Node {
	var out []Node
	for _, id := range m.order {
		if n := m.nodes[id]; n.Kind == kind && !m.visited.has(id) {
			out = append(out, n)
		}
	}
	return out
}

// DOT renders the model in Graphviz DOT form (Figure 5 of the paper is a
// drawing of such a graph). Visited nodes are filled.
func (m *Model) DOT(title string) string {
	var b strings.Builder
	b.WriteString("digraph AFTM {\n")
	fmt.Fprintf(&b, "  label=%q;\n", title)
	b.WriteString("  rankdir=LR;\n")
	for _, id := range m.order {
		n := m.nodes[id]
		attrs := []string{fmt.Sprintf("label=%q", n.Name)}
		if n.Kind == KindActivity {
			attrs = append(attrs, "shape=box")
		} else {
			attrs = append(attrs, "shape=ellipse")
		}
		if m.visited.has(id) {
			attrs = append(attrs, "style=filled", `fillcolor="lightgrey"`)
		}
		if id == m.entry {
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
