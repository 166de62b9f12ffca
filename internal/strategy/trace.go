package strategy

import (
	"fmt"
	"sort"

	"fragdroid/internal/device"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

// Library is a corpus of recorded routes keyed by the app they were recorded
// on, with the widget-ref vocabulary each app's routes exercise. The trace
// strategy matches a target app against the library by vocabulary similarity
// and adapts the routes of the closest apps (PuppetDroid's premise: UI
// traces collected on one app transfer to structurally similar ones).
type Library struct {
	entries map[string]*libEntry
}

type libEntry struct {
	pkg    string
	vocab  map[string]bool
	routes []robotium.Script
}

// NewLibrary returns an empty route library.
func NewLibrary() *Library {
	return &Library{entries: make(map[string]*libEntry)}
}

// Add records routes under the app package they were recorded on, merging
// with earlier additions for the same package.
func (l *Library) Add(pkg string, routes ...robotium.Script) {
	e := l.entries[pkg]
	if e == nil {
		e = &libEntry{pkg: pkg, vocab: make(map[string]bool)}
		l.entries[pkg] = e
	}
	for _, r := range routes {
		if len(r.Ops) == 0 {
			continue
		}
		e.routes = append(e.routes, r)
		for _, op := range r.Ops {
			if op.Ref != "" {
				e.vocab[op.Ref] = true
			}
		}
	}
}

// Apps returns the library's package names, sorted.
func (l *Library) Apps() []string { return session.SortedKeys(l.entries) }

// Routes reports the total number of recorded routes.
func (l *Library) Routes() int {
	n := 0
	for _, e := range l.entries {
		n += len(e.routes)
	}
	return n
}

// jaccard is the similarity of two ref vocabularies.
func jaccard(a, b map[string]bool) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for k := range a {
		if b[k] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// TraceReuse seeds test cases from recorded routes of structurally similar
// corpus apps: library entries are ranked by widget-vocabulary similarity to
// the target, their routes adapted to the target (operations on widgets,
// activities, or fragments the target does not have are dropped), and the
// surviving scripts replayed most-similar-first after a guaranteed launch.
type TraceReuse struct {
	ex        *statics.Extraction
	lib       *Library
	effective map[string]bool

	visitedActs  map[string]bool
	visitedFrags map[string]bool
}

// NewTraceReuse returns the trace-reuse strategy for one analyzed app, ready
// for session.Drive. A nil library leaves only the launch fallback.
func NewTraceReuse(ex *statics.Extraction, opts Options) *TraceReuse {
	return &TraceReuse{
		ex:           ex,
		lib:          opts.Library,
		effective:    EffectiveSet(ex),
		visitedActs:  make(map[string]bool),
		visitedFrags: make(map[string]bool),
	}
}

// Name implements session.Strategy.
func (t *TraceReuse) Name() string { return "trace" }

// SessionOptions implements session.Strategy. Replays run verbatim — no
// auto-dismiss — matching the recorder's replay discipline.
func (t *TraceReuse) SessionOptions(h session.Harness) session.Options {
	return session.Options{
		Budget:    h.Budget,
		HaltOnAPI: h.HaltOnAPI,
		Observer:  h.Observer,
		Coverage:  t.coverage,
	}
}

// coverage counts credited effective activities and fragments.
func (t *TraceReuse) coverage() (int, int) {
	n := 0
	for a := range t.visitedActs {
		if t.effective[a] {
			n++
		}
	}
	return n, len(t.visitedFrags)
}

// vocab is the target app's widget-ref vocabulary, from its layouts.
func (t *TraceReuse) vocab() map[string]bool {
	v := make(map[string]bool)
	for _, l := range t.ex.App.Layouts {
		for _, ref := range l.WidgetIDs() {
			v[ref] = true
		}
	}
	return v
}

// Explore adapts the library's routes to the target, then replays the
// launch and the adapted routes in order until the session is exhausted or
// halted.
func (t *TraceReuse) Explore(s *session.Session) error {
	for i, sc := range t.scripts(s) {
		purpose := session.PurposeReplay
		if i == 0 {
			purpose = session.PurposeLaunch
		}
		d, res, ok := s.RunScript(sc, purpose)
		if !ok {
			return nil
		}
		t.credit(s, sc, d, res)
	}
	return nil
}

// scripts ranks the library by similarity and adapts the closest apps'
// routes, most similar first, after the launch.
func (t *TraceReuse) scripts(s *session.Session) []robotium.Script {
	scripts := []robotium.Script{{Name: "launch", Ops: []robotium.Op{robotium.LaunchMain()}}}
	if t.lib == nil {
		s.Notef("trace: no route library; launch only")
		return scripts
	}
	vocab := t.vocab()
	self := t.ex.App.Manifest.Package
	type ranked struct {
		e   *libEntry
		sim float64
	}
	var order []ranked
	for _, pkg := range t.lib.Apps() {
		if pkg == self {
			continue // reusing the target's own traces would be cheating
		}
		e := t.lib.entries[pkg]
		order = append(order, ranked{e: e, sim: jaccard(vocab, e.vocab)})
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].sim != order[j].sim {
			return order[i].sim > order[j].sim
		}
		return order[i].e.pkg < order[j].e.pkg
	})
	for _, r := range order {
		for i, route := range r.e.routes {
			ops := t.adapt(route.Ops, vocab)
			if len(ops) <= 1 {
				continue // nothing survived beyond the launch fallback
			}
			scripts = append(scripts, robotium.Script{
				Name: fmt.Sprintf("trace_%s_%d", r.e.pkg, i),
				Ops:  ops,
			})
		}
	}
	s.Notef("trace: adapted %d routes from %d similar apps", len(scripts)-1, len(order))
	return scripts
}

// adapt filters a recorded route down to the operations the target app can
// perform: clicks and text entries on widgets it has, starts of activities
// it declares, reflective switches of fragments it commits — everything else
// is dropped; vocab is the target's widget-ref vocabulary. The result
// always begins with a launch.
func (t *TraceReuse) adapt(ops []robotium.Op, vocab map[string]bool) []robotium.Op {
	out := []robotium.Op{robotium.LaunchMain()}
	for _, op := range ops {
		switch op.Kind {
		case robotium.OpLaunchMain:
			// already leading
		case robotium.OpBack, robotium.OpDismissDialog:
			out = append(out, op)
		case robotium.OpClick, robotium.OpEnterText:
			if vocab[op.Ref] {
				out = append(out, op)
			}
		case robotium.OpForceStart:
			if t.ex.App.Manifest.HasActivity(op.Activity) {
				out = append(out, op)
			}
		case robotium.OpReflect:
			if !t.ex.TxnCommitted[op.Fragment] {
				continue
			}
			host, ok := t.ex.Deps.PrimaryHost(op.Fragment)
			if !ok {
				continue
			}
			containers := t.ex.Containers[host]
			if len(containers) == 0 {
				continue
			}
			// Re-target the container: the recorded one belongs to the
			// source app's layouts.
			out = append(out, robotium.Reflect(op.Fragment, containers[0]))
		}
	}
	return out
}

// credit credits the interface the replay landed on.
func (t *TraceReuse) credit(s *session.Session, sc robotium.Script, d *device.Device, res robotium.Result) {
	if res.Err != nil {
		s.Notef("trace %s stopped at %q: %v", sc.Name, res.FailedOp, res.Err)
	}
	dump, err := d.Dump()
	if err != nil {
		return
	}
	if cur := dump.Activity; cur != "" && !t.visitedActs[cur] {
		t.visitedActs[cur] = true
		s.Trace(session.Event{Kind: session.KindVisit, Activity: cur,
			Script: sc.Name, Ops: len(sc.Ops),
			Msg: fmt.Sprintf("trace reached %s (%d ops)", cur, len(sc.Ops))})
	}
	for _, f := range identifyFragments(t.ex, dump) {
		if t.visitedFrags[f] {
			continue
		}
		t.visitedFrags[f] = true
		s.Trace(session.Event{Kind: session.KindVisit, Node: "F:" + f,
			Script: sc.Name,
			Msg:    fmt.Sprintf("trace reached fragment %s", f)})
	}
}

// Finish fills the generic outcome with the credited component sets.
func (t *TraceReuse) Finish(out *session.Outcome) {
	out.VisitedActivities = session.SortedKeys(t.visitedActs)
	out.VisitedFragments = session.SortedKeys(t.visitedFrags)
}

// HarvestVisits adds an explorer run's first-arrival routes to the library —
// the cheapest honest source of recorded traces: each route is a working
// recording of how a real exploration reached a component on that app.
// Routes are added in deterministic (sorted-node) order.
func HarvestVisits(lib *Library, pkg string, routes map[string]robotium.Script) {
	keys := session.SortedKeys(routes)
	for _, k := range keys {
		lib.Add(pkg, routes[k])
	}
}
