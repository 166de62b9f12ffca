package explorer

import (
	"strconv"
	"strings"

	"fragdroid/internal/aftm"
)

// PlannedItem is one UI-transition-queue item as §VI-B defines it: "the way
// of reaching a certain interface (Activity or Fragment), start interface,
// target interface, and an operation list storing the concrete operations
// from the start interface to the target interface". At planning time the
// operation list is symbolic — the Via labels of the AFTM path; the dynamic
// phase replaces them with concrete Robotium operations as it learns them.
type PlannedItem struct {
	// Index is the breadth-first discovery order (the entry is 0).
	Index int
	// Start is the node the transition leaves from (equal to Target for the
	// entry item).
	Start aftm.Node
	// Target is the node the item reaches.
	Target aftm.Node
	// Method is the planned way of reaching the target, derived from the
	// final edge's Via label.
	Method ReachMethod
	// Path is the edge path from the entry node.
	Path []aftm.Edge
}

// String renders the item like a queue log line, in one allocation.
func (p PlannedItem) String() string {
	n := 32 + len(p.Start.Name) + len(p.Target.Name) + len(p.Method)
	for _, e := range p.Path {
		n += len(e.Via) + 2
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte('#')
	b.WriteString(strconv.Itoa(p.Index))
	b.WriteByte(' ')
	writeNode(&b, p.Start)
	b.WriteString(" --[")
	for i, e := range p.Path {
		if i > 0 {
			b.WriteString(", ")
		}
		if e.Via == "" {
			b.WriteByte('?')
		} else {
			b.WriteString(e.Via)
		}
	}
	b.WriteString("]--> ")
	writeNode(&b, p.Target)
	b.WriteString(" via ")
	b.WriteString(string(p.Method))
	return b.String()
}

// writeNode writes n as n.String() renders it.
func writeNode(b *strings.Builder, n aftm.Node) {
	b.WriteString(n.Kind.String())
	b.WriteByte(':')
	b.WriteString(n.Name)
}

// PlanQueue is the queue-generation module: it traverses the AFTM breadth-
// first from the entry and emits one item per discovered node, each carrying
// the edge path from the entry (§III: "Every newly discovered node ... will
// trigger that a new item will be pushed to the queue"). Nodes unreachable
// in the model get no item; the §VI-C forced-start loop covers them later.
func PlanQueue(m *aftm.Model) []PlannedItem {
	entry, ok := m.Entry()
	if !ok {
		return nil
	}
	var items []PlannedItem
	order, pathOf := m.Paths()
	for i, n := range order {
		item := PlannedItem{Index: i, Target: n, Start: n, Method: ReachLaunch}
		if n != entry {
			path := pathOf[n]
			item.Path = path
			if len(path) > 0 {
				last := path[len(path)-1]
				item.Start = last.From
				item.Method = plannedMethod(last)
			}
		}
		items = append(items, item)
	}
	return items
}

// plannedMethod maps an edge's Via label to the reach method the test-case
// generator would template: explicit clicks where one is known, the
// reflection mechanism for fragment edges without one (§VI-B: "if no
// explicit operation can be used for interface transition, the Java
// reflection mechanism will be utilized"), and plain intents for activity
// edges.
func plannedMethod(e aftm.Edge) ReachMethod {
	switch {
	case strings.HasPrefix(e.Via, "click:"):
		return ReachClick
	case e.Via == aftm.ViaForcedStart:
		return ReachForced
	case e.To.Kind == aftm.KindFragment:
		return ReachReflection
	default:
		return ReachClick
	}
}
