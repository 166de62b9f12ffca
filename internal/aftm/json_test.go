package aftm

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	m := buildModel(t)
	m.Visit(ActivityNode("A0"))
	m.Visit(FragmentNode("F0"))

	data, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := UnmarshalModel(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}

	if !reflect.DeepEqual(back.Nodes(), m.Nodes()) {
		t.Errorf("nodes = %v, want %v", back.Nodes(), m.Nodes())
	}
	if !reflect.DeepEqual(back.Edges(), m.Edges()) {
		t.Errorf("edges = %v, want %v", back.Edges(), m.Edges())
	}
	for _, n := range m.Nodes() {
		if back.Visited(n) != m.Visited(n) {
			t.Errorf("visited(%v) mismatch", n)
		}
	}
	e1, ok1 := m.Entry()
	e2, ok2 := back.Entry()
	if ok1 != ok2 || e1 != e2 {
		t.Errorf("entry = %v,%v want %v,%v", e2, ok2, e1, ok1)
	}
	// And the round trip is stable.
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Error("second marshal differs from first")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"garbage", "{"},
		{"bad version", `{"version":99,"nodes":[],"edges":[]}`},
		{"bad kind", `{"version":1,"nodes":[{"kind":"widget","name":"x"}],"edges":[]}`},
		{"dangling edge", `{"version":1,"nodes":[{"kind":"activity","name":"a"}],"edges":[{"kind":"E1","from":"a","to":"b"}]}`},
		{"kind mismatch", `{"version":1,"nodes":[{"kind":"activity","name":"a"},{"kind":"fragment","name":"f"}],"edges":[{"kind":"E1","from":"a","to":"f"}]}`},
		{"bad entry", `{"version":1,"entry":"f","nodes":[{"kind":"fragment","name":"f"}],"edges":[]}`},
		{"dup node kinds", `{"version":1,"nodes":[{"kind":"activity","name":"x"},{"kind":"fragment","name":"x"}],"edges":[]}`},
	}
	for _, tc := range cases {
		if _, err := UnmarshalModel([]byte(tc.data)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestJSONShape(t *testing.T) {
	m := New()
	if err := m.SetEntry(ActivityNode("com.x.Main")); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddEdge(ActivityNode("com.x.Main"), FragmentNode("com.x.F"), ViaTransaction); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"entry":"com.x.Main"`, `"kind":"E2"`, `"via":"transaction"`, `"kind":"fragment"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s:\n%s", want, s)
		}
	}
}

// UnmarshalModel reconstructs a model from its JSON form, the inverse of
// MarshalJSON that the round-trip tests check it against.
func UnmarshalModel(data []byte) (*Model, error) {
	var jm jsonModel
	if err := json.Unmarshal(data, &jm); err != nil {
		return nil, fmt.Errorf("aftm: decode: %w", err)
	}
	if jm.Version != jsonVersion {
		return nil, fmt.Errorf("aftm: unsupported model version %d", jm.Version)
	}
	m := New()
	kinds := make(map[string]NodeKind, len(jm.Nodes))
	for _, jn := range jm.Nodes {
		k, err := kindFromName(jn.Kind)
		if err != nil {
			return nil, err
		}
		if prev, dup := kinds[jn.Name]; dup && prev != k {
			return nil, fmt.Errorf("aftm: node %q declared with two kinds", jn.Name)
		}
		kinds[jn.Name] = k
		n := Node{Kind: k, Name: jn.Name}
		m.AddNode(n)
		if jn.Visited {
			m.Visit(n)
		}
	}
	for _, je := range jm.Edges {
		fk, ok := kinds[je.From]
		if !ok {
			return nil, fmt.Errorf("aftm: edge from undeclared node %q", je.From)
		}
		tk, ok := kinds[je.To]
		if !ok {
			return nil, fmt.Errorf("aftm: edge to undeclared node %q", je.To)
		}
		from := Node{Kind: fk, Name: je.From}
		to := Node{Kind: tk, Name: je.To}
		if _, err := m.AddEdge(from, to, je.Via); err != nil {
			return nil, err
		}
		// Cross-check the serialized edge kind.
		if e, ok := m.EdgeBetween(from, to); ok && e.Kind.String() != je.Kind {
			return nil, fmt.Errorf("aftm: edge %s->%s declared %s, derived %s",
				je.From, je.To, je.Kind, e.Kind)
		}
	}
	if jm.Entry != "" {
		k, ok := kinds[jm.Entry]
		if !ok || k != KindActivity {
			return nil, fmt.Errorf("aftm: entry %q is not a declared activity", jm.Entry)
		}
		if err := m.SetEntry(ActivityNode(jm.Entry)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func kindFromName(s string) (NodeKind, error) {
	switch s {
	case "activity":
		return KindActivity, nil
	case "fragment":
		return KindFragment, nil
	default:
		return 0, fmt.Errorf("aftm: unknown node kind %q", s)
	}
}
