package aftm

import (
	"fmt"

	"fragdroid/internal/binc"
)

// bincModelVersion versions the binc model payload embedded in extraction
// artifacts.
const bincModelVersion = 1

// EncodeModel renders the model in binc form — the same information as the
// JSON form (kept for human-facing exports), but decoded on every warm
// artifact load, so it is built for decode speed: class names are interned
// once in the string table and kinds are varints, with no reflection on
// either side. Nodes come in Nodes order and edges in Edges order, so the
// output is deterministic and a decoded model is numbered as it arrives.
func EncodeModel(m *Model) []byte {
	w := binc.NewWriter()
	w.Int(bincModelVersion)
	entry := ""
	if e, ok := m.Entry(); ok {
		entry = e.Name
	}
	w.Str(entry)
	w.Int(len(m.order))
	for _, id := range m.order {
		n := m.nodes[id]
		w.Int(int(n.Kind))
		w.Str(n.Name)
		w.Bool(m.visited.has(id))
	}
	w.Int(len(m.edges))
	m.eachEdge(func(e *edge) {
		// From/To kinds are implied by the edge kind (E1: A→A, E2: A→F,
		// E3: F→F) and checked against the node table on decode.
		w.Int(int(e.kind))
		w.Str(m.nodes[e.from].Name)
		w.Str(m.nodes[e.to].Name)
		w.Str(e.via)
	})
	return w.Bytes()
}

// endpointKinds returns the node kinds an edge of kind k joins.
func endpointKinds(k EdgeKind) (from, to NodeKind, ok bool) {
	switch k {
	case E1:
		return KindActivity, KindActivity, true
	case E2:
		return KindActivity, KindFragment, true
	case E3:
		return KindFragment, KindFragment, true
	}
	return 0, 0, false
}

// DecodeModel reconstructs a model from its binc form, numbering the nodes
// in the order they arrive. Node kinds must be well-formed, a name may not
// be declared with both kinds, every edge must join declared nodes of the
// kinds its edge kind implies, and the entry must be a declared activity.
func DecodeModel(data []byte) (*Model, error) {
	r, err := binc.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("aftm: decode: %w", err)
	}
	if v := r.Int(); v != bincModelVersion {
		if r.Err() != nil {
			return nil, fmt.Errorf("aftm: decode: %w", r.Err())
		}
		return nil, fmt.Errorf("aftm: unsupported model version %d", v)
	}
	entry := r.Str()
	nNodes := r.Count(3) // a kind, a name and a visited mark, a byte each at least
	m := &Model{
		entry: -1,
		nodes: make([]Node, 0, nNodes),
		index: make(map[Node]int32, nNodes),
		order: make([]int32, 0, nNodes),
		adj:   make([][]int32, 0, nNodes),
	}
	for i := 0; i < nNodes && r.Err() == nil; i++ {
		k := NodeKind(r.Int())
		name := r.Str()
		visited := r.Bool()
		other := KindFragment
		switch k {
		case KindActivity:
		case KindFragment:
			other = KindActivity
		default:
			return nil, fmt.Errorf("aftm: unknown node kind %d", int(k))
		}
		if m.HasNode(Node{Kind: other, Name: name}) {
			return nil, fmt.Errorf("aftm: node %q declared with two kinds", name)
		}
		id, _ := m.add(Node{Kind: k, Name: name})
		if visited {
			m.visited.set(id)
		}
	}
	nEdges := r.Count(4) // a kind and three names, a byte each at least
	m.edges = make([]edge, 0, nEdges)
	for i := 0; i < nEdges && r.Err() == nil; i++ {
		ek := EdgeKind(r.Int())
		from := r.Str()
		to := r.Str()
		via := r.Str()
		if r.Err() != nil {
			break
		}
		fk, tk, ok := endpointKinds(ek)
		if !ok {
			return nil, fmt.Errorf("aftm: unknown edge kind %d", int(ek))
		}
		f, ok := m.index[Node{Kind: fk, Name: from}]
		if !ok {
			return nil, fmt.Errorf("aftm: %s edge from undeclared %s node %q", ek, fk, from)
		}
		t, ok := m.index[Node{Kind: tk, Name: to}]
		if !ok {
			return nil, fmt.Errorf("aftm: %s edge to undeclared %s node %q", ek, tk, to)
		}
		if f == t {
			return nil, fmt.Errorf("aftm: self edge on %s", m.nodes[f])
		}
		m.link(ek, f, t, via)
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("aftm: decode: %w", r.Err())
	}
	if entry != "" {
		id, ok := m.index[ActivityNode(entry)]
		if !ok {
			return nil, fmt.Errorf("aftm: entry %q is not a declared activity", entry)
		}
		m.entry = id
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("aftm: decode: %w", err)
	}
	return m, nil
}
