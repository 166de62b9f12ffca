package callgraph

import (
	"fmt"

	"fragdroid/internal/binc"
	"fragdroid/internal/smali"
)

// The graph payload is a binc encoding: nodes in insertion order, edges
// grouped per source node in insertion order, API sites per method node, then
// the launcher and the sorted component class lists. Decoding reproduces
// every order-sensitive accessor (Nodes, Edges, EdgesFrom) of the encoded
// graph exactly.

func encodeNode(w *binc.Writer, n Node) {
	w.Int(int(n.Kind))
	w.Str(n.Class)
	w.Str(n.Method)
}

func decodeNode(r *binc.Reader) Node {
	return Node{Kind: Kind(r.Int()), Class: r.Str(), Method: r.Str()}
}

// Encode serializes the graph for the artifact store. The output is
// deterministic: it follows the graph's insertion orders.
func (g *Graph) Encode() ([]byte, error) {
	w := binc.NewWriter()
	w.Int(len(g.order))
	for _, n := range g.order {
		encodeNode(w, n)
	}
	var nEdges, nAPIs int
	for _, n := range g.order {
		nEdges += len(g.out[n])
		nAPIs += len(g.apis[n])
	}
	w.Int(nEdges)
	for _, n := range g.order {
		for _, e := range g.out[n] {
			encodeNode(w, e.From)
			encodeNode(w, e.To)
			w.Str(string(e.Reason))
			w.Int(e.Line)
			w.Str(e.Ref)
		}
	}
	w.Int(nAPIs)
	for _, n := range g.order {
		for _, s := range g.apis[n] {
			encodeNode(w, n)
			w.Str(s.api)
			w.Int(s.line)
		}
	}
	w.Str(g.launcher)
	w.StrSlice(g.activities)
	w.StrSlice(g.fragments)
	w.StrSlice(g.receivers)
	return w.Bytes(), nil
}

// Decode reconstructs a graph from Encode output. prog is the program the
// graph was built over; it is reattached rather than serialized, exactly as
// Build stores it. Decode trusts checksum-verified input and does not
// re-derive the edges; corrupt input still yields an error, and the node
// count that presizes the maps is checked against the bytes left.
func Decode(data []byte, prog *smali.Program) (*Graph, error) {
	r, err := binc.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("callgraph: decode: %w", err)
	}
	nNodes := r.Count(3) // a kind and two strings
	g := &Graph{
		prog:  prog,
		nodes: make(map[Node]bool, nNodes),
		out:   make(map[Node][]Edge, nNodes),
		apis:  make(map[Node][]apiSite),
	}
	for i := 0; i < nNodes && r.Err() == nil; i++ {
		g.addNode(decodeNode(r))
	}
	nEdges := r.Int()
	for i := 0; i < nEdges && r.Err() == nil; i++ {
		e := Edge{From: decodeNode(r), To: decodeNode(r), Reason: Reason(r.Str()), Line: r.Int(), Ref: r.Str()}
		if r.Err() != nil {
			break
		}
		if !g.nodes[e.From] || !g.nodes[e.To] {
			return nil, fmt.Errorf("callgraph: decode: edge %s touches undeclared node", e)
		}
		g.out[e.From] = append(g.out[e.From], e)
	}
	nAPIs := r.Int()
	for i := 0; i < nAPIs && r.Err() == nil; i++ {
		n := decodeNode(r)
		s := apiSite{api: r.Str(), line: r.Int()}
		if r.Err() != nil {
			break
		}
		if !g.nodes[n] {
			return nil, fmt.Errorf("callgraph: decode: API site on undeclared node %s", n)
		}
		g.apis[n] = append(g.apis[n], s)
	}
	g.launcher = r.Str()
	g.activities = r.StrSlice()
	g.fragments = r.StrSlice()
	g.receivers = r.StrSlice()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("callgraph: decode: %w", err)
	}
	return g, nil
}
