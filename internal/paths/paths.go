// Package paths is the static UI-path reconstruction pass: a bounded
// k-shortest-path enumeration over the interprocedural callgraph from the
// app's entry points to a target node (a sensitive-API site, a component, a
// fraglint diagnostic's position), followed by a lowering that turns every
// edge — by its Reason — into the concrete UI step that actuates it: which
// widget to click, which input gate to fill, which dialog to dismiss, which
// forced empty-Intent start to issue. Fully lowered paths compile into
// robotium route seeds the directed strategy replays; paths containing an
// edge with no UI actuation (an inner-class over-approximation with no bound
// widget, a reflection switch the fragment's constructor gates, code that
// only runs in a receiver's context) are reported as Unliftable with the
// blocking edge, not silently dropped.
//
// The root policy mirrors the reachability ceilings of internal/callgraph:
// by default paths start from the launcher plus every effective Activity
// (forced empty-Intent starts, the StaticReach policy), so the planner's
// classification sums line up with report.BuildCeiling; LauncherOnly
// restricts the search to the launcher root (the LauncherReach policy
// fraglint's FL013 checks against).
package paths

import (
	"container/heap"
	"sort"

	"fragdroid/internal/callgraph"
	"fragdroid/internal/inputgen"
	"fragdroid/internal/statics"
)

// The search's bounds, per target.
const (
	// maxPaths bounds the enumerated paths: the k of the k-shortest-path
	// search.
	maxPaths = 8
	// maxDepth bounds a path's length in edges.
	maxDepth = 16
	// maxExpand bounds the search-state expansions, a safety valve against
	// pathological graphs.
	maxExpand = 20000
)

// Config tunes the planner.
type Config struct {
	// LauncherOnly restricts the roots to the MAIN/LAUNCHER activity — what
	// a user reaches by clicking alone. The default root set adds every
	// effective Activity as a forced empty-Intent start, matching
	// StaticReach.
	LauncherOnly bool
	// Inputs, InputGen and DefaultInput resolve values for require-input
	// gates on the lowered routes, mirroring the explorer's resolution
	// order: analyst inputs first, then the generator keyed on the widget's
	// hint, then the default filler.
	Inputs       map[string]string
	InputGen     inputgen.Generator
	DefaultInput string
}

// DefaultConfig matches the explorer's default input handling.
func DefaultConfig() Config {
	return Config{DefaultInput: "test123"}
}

// Target identifies what a path search aims for.
type Target struct {
	// API is the sensitive API ("" when targeting a component or method
	// position directly).
	API string
	// Class is the owning component class.
	Class string
}

// Path is one loopless callgraph walk from a root to a target node.
type Path struct {
	// Root is the component the path enters the app at.
	Root callgraph.Node
	// Forced reports that Root is entered via a forced empty-Intent start
	// rather than the launcher.
	Forced bool
	// Edges is the walk; empty when the root itself is the target.
	Edges []callgraph.Edge
	// Cost is the search cost: the number of explicit UI actuations, with a
	// large penalty per blocking edge so liftable paths always rank first.
	Cost int
}

// Planner enumerates and lowers paths over one app's extraction.
type Planner struct {
	ex  *statics.Extraction
	cfg Config
	// hints maps input-widget refs to hint text for InputGen.
	hints map[string]string
}

// New returns a planner over an extraction.
func New(ex *statics.Extraction, cfg Config) *Planner {
	p := &Planner{ex: ex, cfg: cfg, hints: make(map[string]string)}
	for _, w := range ex.InputWidgets {
		p.hints[w.Ref] = w.Hint
	}
	return p
}

// blockedCost is the per-edge penalty for edges lowering cannot actuate.
// Any path cheaper than one blockedCost is fully liftable, so liftable paths
// always outrank blocked ones in the k-best frontier.
const blockedCost = 1 << 10

// edgeCost weights an edge by the explicit UI work its lowering needs:
// framework- and code-triggered edges are free (they fire when their source
// executes), clicks and reflective switches cost one actuation, and edges
// with no actuation carry the blocking penalty.
func edgeCost(e callgraph.Edge) int {
	switch e.Reason {
	case callgraph.ReasonListener, callgraph.ReasonXMLOnClick:
		if e.Ref == "" {
			return blockedCost
		}
		return 1
	case callgraph.ReasonReflection:
		return 1
	case callgraph.ReasonInner:
		return blockedCost
	default:
		// lifecycle, intent, action, transaction, inflate, static-fragment,
		// broadcast: automatic once the source runs.
		return 0
	}
}

// searchState is one frontier entry of the best-first enumeration.
type searchState struct {
	node   callgraph.Node
	root   callgraph.Node
	forced bool
	edges  []callgraph.Edge
	cost   int
	seq    int // insertion order, the deterministic tie-break
}

type frontier []*searchState

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].cost != f[j].cost {
		return f[i].cost < f[j].cost
	}
	if len(f[i].edges) != len(f[j].edges) {
		return len(f[i].edges) < len(f[j].edges)
	}
	return f[i].seq < f[j].seq
}
func (f frontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)   { *f = append(*f, x.(*searchState)) }
func (f *frontier) Pop() any     { old := *f; n := len(old); s := old[n-1]; *f = old[:n-1]; return s }
func (s *searchState) onPath(n callgraph.Node) bool {
	if s.root == n {
		return true
	}
	for _, e := range s.edges {
		if e.To == n {
			return true
		}
	}
	return false
}

// roots returns the search's start states under the configured root policy,
// in deterministic order: the launcher first, then the effective activities
// as forced starts.
func (p *Planner) roots() []*searchState {
	g := p.ex.Graph()
	var out []*searchState
	launcher := g.Launcher()
	if launcher != "" {
		out = append(out, &searchState{node: callgraph.ActivityNode(launcher), root: callgraph.ActivityNode(launcher)})
	}
	if p.cfg.LauncherOnly {
		return out
	}
	acts := append([]string(nil), p.ex.EffectiveActivities...)
	sort.Strings(acts)
	for _, a := range acts {
		if a == launcher {
			continue
		}
		n := callgraph.ActivityNode(a)
		out = append(out, &searchState{node: n, root: n, forced: true, cost: 1})
	}
	return out
}

// Enumerate runs the bounded k-shortest-path search to any node the target
// predicate accepts. Paths come back cheapest-first (cost, then length, then
// discovery order); paths through a target node are not extended further.
func (p *Planner) Enumerate(isTarget func(callgraph.Node) bool) []Path {
	g := p.ex.Graph()
	f := frontier{}
	seq := 0
	for _, r := range p.roots() {
		r.seq = seq
		seq++
		heap.Push(&f, r)
	}
	var out []Path
	expansions := 0
	for f.Len() > 0 {
		st := heap.Pop(&f).(*searchState)
		if isTarget(st.node) {
			out = append(out, Path{Root: st.root, Forced: st.forced, Edges: st.edges, Cost: st.cost})
			if len(out) >= maxPaths {
				break
			}
			continue
		}
		if len(st.edges) >= maxDepth {
			continue
		}
		expansions++
		if expansions > maxExpand {
			break
		}
		for _, e := range g.EdgesFrom(st.node) {
			if st.onPath(e.To) {
				continue
			}
			edges := make([]callgraph.Edge, len(st.edges), len(st.edges)+1)
			copy(edges, st.edges)
			heap.Push(&f, &searchState{
				node:   e.To,
				root:   st.root,
				forced: st.forced,
				edges:  append(edges, e),
				cost:   st.cost + edgeCost(e),
				seq:    seq,
			})
			seq++
		}
	}
	return out
}
