// Fixpoint reachability over the whole-program graph. Two root policies
// matter in practice: the launcher alone (what a user reaches by clicking
// from the entry Activity) and launcher + every effective Activity (the
// explorer's forced empty-Intent starts of §VI-C make all of them entry
// points). The latter is the static ceiling dynamic coverage is normalized
// against.
package callgraph

import "sort"

// Reach is the result of a reachability computation: the component, method
// and sensitive-API sets reachable from the chosen roots.
type Reach struct {
	// Activities, Fragments and Receivers are the reachable component
	// classes.
	Activities map[string]bool
	Fragments  map[string]bool
	Receivers  map[string]bool
	// Methods is the reachable method set, keyed "Class.method".
	Methods map[string]bool
	// APIs maps each reachable sensitive API to the component classes whose
	// reachable code invokes it, sorted — the static Table II column.
	APIs map[string][]string
}

// ActivityList returns the reachable activities, sorted.
func (r *Reach) ActivityList() []string { return sortedKeys(r.Activities) }

// APIList returns the reachable sensitive APIs, sorted.
func (r *Reach) APIList() []string {
	out := make([]string, 0, len(r.APIs))
	for api := range r.APIs {
		out = append(out, api)
	}
	sort.Strings(out)
	return out
}

// Invocations counts the distinct (API, component) invocation relations —
// the static counterpart of the Table II invocation total.
func (r *Reach) Invocations() int {
	n := 0
	for _, classes := range r.APIs {
		n += len(classes)
	}
	return n
}

// Reach runs a breadth-first fixpoint from the given root nodes. Roots that
// are not graph nodes are ignored.
func (g *Graph) Reach(roots []Node) *Reach {
	r := &Reach{
		Activities: make(map[string]bool),
		Fragments:  make(map[string]bool),
		Receivers:  make(map[string]bool),
		Methods:    make(map[string]bool),
		APIs:       make(map[string][]string),
	}
	apiOwners := make(map[string]map[string]bool)

	visited := make(map[Node]bool)
	var queue []Node
	for _, n := range roots {
		if g.nodes[n] && !visited[n] {
			visited[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		switch n.Kind {
		case KindActivity:
			r.Activities[n.Class] = true
		case KindFragment:
			r.Fragments[n.Class] = true
		case KindReceiver:
			r.Receivers[n.Class] = true
		case KindMethod:
			r.Methods[n.Class+"."+n.Method] = true
			for _, site := range g.apis[n] {
				owner := outerComponent(n.Class)
				if apiOwners[site.api] == nil {
					apiOwners[site.api] = make(map[string]bool)
				}
				apiOwners[site.api][owner] = true
			}
		}
		for _, e := range g.out[n] {
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}

	for api, owners := range apiOwners {
		r.APIs[api] = sortedKeys(owners)
	}
	return r
}

// LauncherRoots returns the root set for launcher-only reachability.
func (g *Graph) LauncherRoots() []Node {
	if g.launcher == "" {
		return nil
	}
	return []Node{ActivityNode(g.launcher)}
}

// ForcedRoots returns the root set modelling the explorer's forced
// empty-Intent starts: the launcher plus every given activity (normally the
// effective AFTM activities).
func (g *Graph) ForcedRoots(activities []string) []Node {
	roots := g.LauncherRoots()
	for _, a := range activities {
		roots = append(roots, ActivityNode(a))
	}
	return roots
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
