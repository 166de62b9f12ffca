package aftm

import "encoding/json"

// jsonModel is the serialized form of a Model.
type jsonModel struct {
	Entry   string     `json:"entry,omitempty"`
	Nodes   []jsonNode `json:"nodes"`
	Edges   []jsonEdge `json:"edges"`
	Version int        `json:"version"`
}

type jsonNode struct {
	Kind    string `json:"kind"` // "activity" | "fragment"
	Name    string `json:"name"`
	Visited bool   `json:"visited,omitempty"`
}

type jsonEdge struct {
	Kind string `json:"kind"` // "E1" | "E2" | "E3"
	From string `json:"from"`
	To   string `json:"to"`
	Via  string `json:"via,omitempty"`
}

const jsonVersion = 1

func kindName(k NodeKind) string {
	if k == KindActivity {
		return "activity"
	}
	return "fragment"
}

// MarshalJSON serializes the model: nodes (with visited marks), edges, and
// the entry node. The output is deterministic.
func (m *Model) MarshalJSON() ([]byte, error) {
	jm := jsonModel{Version: jsonVersion}
	if e, ok := m.Entry(); ok {
		jm.Entry = e.Name
	}
	for _, id := range m.order {
		n := m.nodes[id]
		jm.Nodes = append(jm.Nodes, jsonNode{
			Kind:    kindName(n.Kind),
			Name:    n.Name,
			Visited: m.visited.has(id),
		})
	}
	m.eachEdge(func(e *edge) {
		jm.Edges = append(jm.Edges, jsonEdge{
			Kind: e.kind.String(),
			From: m.nodes[e.from].Name,
			To:   m.nodes[e.to].Name,
			Via:  e.via,
		})
	})
	return json.Marshal(jm)
}
