package paths

import "fragdroid/internal/callgraph"

// SitePlan is the planning result for one target: the lifted routes
// (cheapest first), the enumerated-but-blocked paths, and launcher
// reachability of the target.
type SitePlan struct {
	Target Target
	// Routes are the lifted paths, cheapest first. Each replays end to end
	// from a fresh device.
	Routes []Route
	// Blocked are the enumerated paths whose lowering failed, in enumeration
	// order. A target with no Routes and a non-empty Blocked is unliftable;
	// one with neither was out of the search's reach entirely (reported as
	// one CauseSearchBound entry).
	Blocked []Unliftable
	// LauncherReachable reports whether launcher-only reachability covers
	// the target (false means only forced starts can reach it).
	LauncherReachable bool
}

// Liftable reports whether at least one enumerated path lowered to a route.
func (sp *SitePlan) Liftable() bool { return len(sp.Routes) > 0 }

// Blocking returns the representative blocking record: the first blocked
// path of the cheapest enumeration (ok=false when the plan has routes or
// nothing was enumerated).
func (sp *SitePlan) Blocking() (Unliftable, bool) {
	if len(sp.Blocked) == 0 {
		return Unliftable{}, false
	}
	return sp.Blocked[0], true
}

// PlanTarget enumerates and lowers paths to an explicit node set.
func (p *Planner) PlanTarget(t Target, isTarget func(callgraph.Node) bool) SitePlan {
	sp := SitePlan{Target: t}
	found := p.Enumerate(isTarget)
	if len(found) == 0 {
		sp.Blocked = append(sp.Blocked, Unliftable{Target: t, Cause: CauseSearchBound})
		return sp
	}
	for _, path := range found {
		r, blocked := p.Lower(t, path, routeName(t, len(sp.Routes)))
		if blocked != nil {
			sp.Blocked = append(sp.Blocked, *blocked)
			continue
		}
		sp.Routes = append(sp.Routes, r)
	}
	return sp
}

// apiTargets returns the predicate accepting the method nodes that invoke
// api in the context of owner (outer component class), plus whether any such
// site exists.
func (p *Planner) apiTargets(api, owner string) (func(callgraph.Node) bool, bool) {
	nodes := make(map[callgraph.Node]bool)
	for _, s := range p.ex.Graph().Sites() {
		if s.API == api && callgraph.OuterComponent(s.Node.Class) == owner {
			nodes[s.Node] = true
		}
	}
	return func(n callgraph.Node) bool { return nodes[n] }, len(nodes) > 0
}

// PlanSite plans one (API, owner component) invocation relation — one cell
// of the static Table II ceiling.
func (p *Planner) PlanSite(api, owner string) SitePlan {
	t := Target{API: api, Class: owner}
	isTarget, ok := p.apiTargets(api, owner)
	if !ok {
		return SitePlan{Target: t, Blocked: []Unliftable{{Target: t, Cause: CauseSearchBound}}}
	}
	sp := p.PlanTarget(t, isTarget)
	sp.LauncherReachable = p.launcherReaches(api, owner)
	return sp
}

// PlanAPI plans every owning component of one sensitive API, in sorted owner
// order — the static relations StaticReach records for it.
func (p *Planner) PlanAPI(api string) []SitePlan {
	var out []SitePlan
	for _, owner := range p.ex.StaticReach().APIs[api] {
		out = append(out, p.PlanSite(api, owner))
	}
	return out
}

// PlanAll plans every static (API, component) invocation relation of the
// extraction — exactly the relations StaticReach.Invocations counts, so a
// classification over the result sums to the ceiling.
func (p *Planner) PlanAll() []SitePlan {
	var out []SitePlan
	for _, api := range p.ex.StaticReach().APIList() {
		out = append(out, p.PlanAPI(api)...)
	}
	return out
}

// PlanComponent plans paths to one component (an activity or fragment
// class) — the fraglint-position flavour of targeting.
func (p *Planner) PlanComponent(class string) SitePlan {
	t := Target{Class: class}
	node, ok := p.componentNode(class)
	if !ok {
		return SitePlan{Target: t, Blocked: []Unliftable{{Target: t, Cause: CauseSearchBound}}}
	}
	return p.PlanTarget(t, func(n callgraph.Node) bool { return n == node })
}

// componentNode maps a class to its component node, trying activity,
// fragment, then receiver kind.
func (p *Planner) componentNode(class string) (callgraph.Node, bool) {
	for _, a := range p.ex.Graph().Activities() {
		if a == class {
			return callgraph.ActivityNode(class), true
		}
	}
	for _, f := range p.ex.Graph().Fragments() {
		if f == class {
			return callgraph.FragmentNode(class), true
		}
	}
	for _, r := range p.ex.Graph().Receivers() {
		if r == class {
			return callgraph.ReceiverNode(class), true
		}
	}
	return callgraph.Node{}, false
}

// launcherReaches reports whether launcher-only reachability covers the
// (api, owner) relation.
func (p *Planner) launcherReaches(api, owner string) bool {
	for _, c := range p.ex.LauncherReach().APIs[api] {
		if c == owner {
			return true
		}
	}
	return false
}
