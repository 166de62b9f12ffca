// Package explorer implements FragDroid's Evolutionary Test Case Generation
// phase (paper §VI): the UI transition queue maintained breadth-first over
// the AFTM, Robotium test-case generation (including the reflection fallback
// for hidden fragments), UI driving with the three arrival cases of §VI-A,
// continuous AFTM updates, and the §VI-C termination condition with the
// second loop of forced empty-Intent activity starts.
package explorer

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"fragdroid/internal/aftm"
	"fragdroid/internal/apk"
	"fragdroid/internal/device"
	"fragdroid/internal/inputgen"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

// Config tunes an exploration run.
type Config struct {
	// UseReflection enables the Java-reflection fragment switching of §VI-A
	// Case 1/2 (ablation A1 turns it off).
	UseReflection bool
	// UseForcedStart enables the §VI-C second loop that force-starts
	// unvisited Activities with empty Intents (ablation A2 turns it off).
	UseForcedStart bool
	// Inputs is the analyst-provided input dependency: widget ref → value.
	Inputs map[string]string
	// InputGen optionally derives values for widgets the input file does not
	// cover, e.g. inputgen.Heuristic keyed on widget hints (the §VIII
	// input-generation extension). Inputs entries take precedence.
	InputGen inputgen.Generator
	// DefaultInput fills input widgets with no provided value ("abc"-style
	// random text in the paper). Empty keeps fields untouched.
	DefaultInput string
	// MaxTestCases bounds the number of generated-and-executed test cases
	// (each fresh instrumentation run counts one). Zero means 600.
	MaxTestCases int
	// UseBackNavigation lets the UI driver press BACK after a cross-activity
	// transition and continue clicking if that restores the interface,
	// instead of always killing and replaying (§VI-A Case 3 specifies the
	// kill-and-restart discipline; this engineering optimization trades
	// paper fidelity for fewer test cases and is off by default).
	UseBackNavigation bool
	// Observer receives the run's structured trace events. The transcript,
	// its notes and the §VI-B queue lines exist only while one is attached;
	// nil disables all of them, and the counters, visits and reports are
	// produced either way.
	Observer session.Observer
	// Seeds are compiled route scripts (statically lifted UI paths from
	// internal/paths) executed right after the launch test case and before
	// frontier exploration. Each seed runs as one budgeted test case; its
	// arrival feeds the normal evolutionary bookkeeping, so near-miss seeds
	// still prime the queue. Empty leaves the run byte-identical to an
	// unseeded one.
	Seeds []robotium.Script
	// Deprecated: ignored; one app is always explored on one device. Kept
	// only until the benchmark driver stops setting it.
	Devices int
	// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
	Snapshots *session.SnapshotMemo

	// haltOnAPI stops the run as soon as the named sensitive API is observed
	// (set by ExploreTarget).
	haltOnAPI string
}

// DefaultConfig is the full FragDroid configuration.
func DefaultConfig() Config {
	return Config{
		UseReflection:  true,
		UseForcedStart: true,
		DefaultInput:   "test123",
	}
}

// ReachMethod records how a node was first reached (Table-I-style analysis
// and the queue items' "way of reaching a certain interface").
type ReachMethod string

// Reach methods.
const (
	ReachLaunch     ReachMethod = "launch"
	ReachClick      ReachMethod = "click"
	ReachReflection ReachMethod = "reflection"
	ReachForced     ReachMethod = "forced-start"
	// ReachSeed marks arrival via a statically compiled route seed
	// (directed exploration).
	ReachSeed ReachMethod = "seed"
)

// Visit records the first arrival at a node.
type Visit struct {
	Node   aftm.Node
	Method ReachMethod
	// Route is the operation list that reaches the node from a fresh start.
	Route robotium.Script
}

// Result is the outcome of an exploration: the engine-independent
// session.Outcome every strategy produces, plus the explorer's own riches.
type Result struct {
	// Outcome carries the visited lists, the sensitive-API Collector, the
	// coverage Curve, the CrashReports with their replayable routes, the
	// session Stats (TestCases, Steps, Crashes, Replays, ... promoted as
	// fields) and the Transcript, whose lines include the §VI-B queue items
	// (PlanQueue) and which is nil without a Config.Observer.
	session.Outcome
	// Extraction is the static-phase output the run was based on.
	Extraction *statics.Extraction
	// Model is the final, evolved AFTM with visited marks.
	Model *aftm.Model
	// Visits maps each visited node to its first-arrival record.
	Visits map[aftm.Node]Visit
}

// VisitedActivities returns the visited activity classes, sorted. The slice
// is shared; callers must not modify it.
func (r *Result) VisitedActivities() []string { return r.Outcome.VisitedActivities }

// VisitedFragments returns the visited fragment classes, sorted. The slice
// is shared; callers must not modify it.
func (r *Result) VisitedFragments() []string { return r.Outcome.VisitedFragments }

// FragmentsInVisitedActivities computes the third column group of Table I:
// the fragments whose (Algorithm 2) host activities were visited, and how
// many of those were themselves visited.
func (r *Result) FragmentsInVisitedActivities() (visited, sum int) {
	visitedActs := make(map[string]bool)
	for n := range r.Visits {
		if n.Kind == aftm.KindActivity {
			visitedActs[n.Name] = true
		}
	}
	inVisited := make(map[string]bool)
	for a, frags := range r.Extraction.Deps.FragmentsOf {
		if !visitedActs[a] {
			continue
		}
		for _, f := range frags {
			inVisited[f] = true
		}
	}
	for f := range inVisited {
		sum++
		if _, ok := r.Visits[aftm.FragmentNode(f)]; ok {
			visited++
		}
	}
	return visited, sum
}

// engine is the run state: the AFTM evolution and queue discipline,
// implemented as a session.Strategy. All harness mechanics (budget, device,
// crash triage, curve, transcript) live in the session Explore runs on.
type engine struct {
	app *apk.App
	ex  *statics.Extraction
	cfg Config
	s   *session.Session

	// model is derived from the extraction's static model, so the run's
	// discoveries never reach the extraction.
	model *aftm.Model
	// visits holds each node's first arrival by node id; an empty Method
	// marks a node not visited yet.
	visits []Visit
	// visitedActs and visitedFrags count the visits by kind, for the
	// coverage curve sampled after every test case.
	visitedActs, visitedFrags int

	// hints maps input-widget refs to their hint text (for InputGen).
	hints map[string]string
	// explored marks interfaces whose widgets were all clicked. Keyed on the
	// iface value itself — it is a small comparable struct, so map lookups
	// and state comparisons need no key-string allocation.
	explored map[iface]bool
	// reflected marks activities whose reflection items were generated.
	reflected map[string]bool
	// worklist holds interfaces awaiting Case 3 exploration.
	worklist []workItem

	// forced holds each activity's forced-start script by node id, built by
	// its first forced start and reused by the passes of later rounds;
	// unvisited is the pass's list of activity ids.
	forced    []robotium.Script
	unvisited []int

	// dumps are the buffers observe fills, in turn: exploreInterface keeps
	// one observation while it takes the next, so the dump observe returns
	// stays valid until the second observe after it.
	dumps    [2]device.UIDump
	nextDump int
}

// CrashReport is one distinct force-close with a route that reproduces it.
type CrashReport = session.CrashReport

// CurvePoint is one sample of the coverage curve.
type CurvePoint = session.CurvePoint

// workItem is the paper's UI-queue item: the way of reaching an interface,
// start and target, and the operation list from start to target.
type workItem struct {
	method ReachMethod
	target iface
	route  robotium.Script
}

// iface identifies a fragment-level UI state: the activity, the credited
// fragments on screen, and a digest of the visible clickable controls.
// Including the control digest makes a revealed navigation drawer a distinct
// UI state (Challenge 2 / Figure 2: the hidden slide menu "is the only
// bridge" to further fragments), so its menu entries get their own
// exploration pass.
type iface struct {
	activity  string
	fragments string // sorted, comma-joined
	widgets   uint64 // FNV-1a over each visible clickable ref and a 0 byte
}

func (i iface) String() string {
	if i.fragments == "" {
		return i.activity
	}
	return i.activity + "{" + i.fragments + "}"
}

// Explore runs the full FragDroid pipeline on a loaded app.
func Explore(app *apk.App, cfg Config) (*Result, error) {
	ex, err := statics.Extract(app)
	if err != nil {
		return nil, err
	}
	return ExploreExtracted(ex, cfg)
}

// ExploreExtracted runs the dynamic phase on an existing static extraction:
// it constructs the engine as a session.Strategy and lets session.Drive run
// it, then re-attaches the explorer-specific riches (the evolved model,
// visit routes) the generic Outcome cannot carry.
func ExploreExtracted(ex *statics.Extraction, cfg Config) (*Result, error) {
	if cfg.MaxTestCases == 0 {
		cfg.MaxTestCases = 600
	}
	e := NewStrategy(ex, cfg)
	out, err := session.Drive(ex.App, e, session.Harness{
		Budget:    cfg.MaxTestCases,
		HaltOnAPI: cfg.haltOnAPI,
		Observer:  cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	visits := make(map[aftm.Node]Visit, e.visitedActs+e.visitedFrags)
	for _, v := range e.visits {
		if v.Method != "" {
			visits[v.Node] = v
		}
	}
	return &Result{Outcome: *out, Extraction: ex, Model: e.model, Visits: visits}, nil
}

// NewStrategy returns the FragDroid explorer as a session.Strategy, ready
// for session.Drive. Callers that want the full explorer Result should use
// ExploreExtracted; the strategy form serves the generic bake-off harness.
func NewStrategy(ex *statics.Extraction, cfg Config) *engine {
	return &engine{
		app:       ex.App,
		ex:        ex,
		cfg:       cfg,
		model:     ex.Model.Derive(),
		visits:    make([]Visit, ex.Model.Len()),
		hints:     make(map[string]string),
		explored:  make(map[iface]bool),
		reflected: make(map[string]bool),
	}
}

// Name implements session.Strategy.
func (e *engine) Name() string { return "explorer" }

// SessionOptions implements session.Strategy: the explorer runs with
// auto-dismiss, crash triage, and curve sampling on.
func (e *engine) SessionOptions() session.Options {
	return session.Options{AutoDismiss: true, TriageCrashes: true, Coverage: e.coverage}
}

// coverage feeds the session's curve sampler with the cumulative visited
// counts.
func (e *engine) coverage() (acts, frags int) {
	return e.visitedActs, e.visitedFrags
}

// IdentifyFragments is the fragment-crediting rule of §VII-B2 that every
// engine crediting fragments applies to a UI dump. A fragment counts only if
// the FragmentManager confirms it and, when the resource dependency gives it
// widgets, a visible widget of its layouts identifies it (Algorithm 3).
// Fragments loaded without a FragmentManager are never credited: FragDroid
// "cannot determine whether the Fragment is a real loading". The result is
// the credited classes, sorted and comma-joined; it allocates only to join
// two or more.
func IdentifyFragments(ex *statics.Extraction, dump device.UIDump) string {
	var key string
	for _, f := range dump.FMFragments { // sorted by the device
		if len(ex.ResDeps.ByOwner[f]) != 0 && !shownByWidget(ex, f, dump) {
			continue
		}
		if key == "" {
			key = f
		} else {
			key += "," + f
		}
	}
	return key
}

// shownByWidget reports whether a visible widget of the dump belongs to
// fragment f's layouts.
func shownByWidget(ex *statics.Extraction, f string, dump device.UIDump) bool {
	for _, w := range dump.Widgets {
		if !w.Visible {
			continue
		}
		for _, loc := range ex.ResDeps.ByWidget[w.Ref] { // both keyed by normalized ref
			if loc.OwnerKind == statics.OwnerFragment && loc.Owner == f {
				return true
			}
		}
	}
	return false
}

// FNV-1a parameters of the interface widget digest (those of hash/fnv's
// New64a, inlined so that the digest allocates nothing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// observe dumps the device's UI and identifies the interface it shows. The
// explorer observes each device state once: callers carry the result
// forward until the next device call. The dump shares its storage with the
// engine's buffers, so it stays valid until the second observe after this
// one.
func (e *engine) observe(d *device.Device) (iface, device.UIDump, error) {
	buf := &e.dumps[e.nextDump]
	e.nextDump ^= 1
	err := d.DumpInto(buf)
	dump := *buf
	if err != nil {
		return iface{}, dump, err
	}
	h := uint64(fnvOffset64)
	for _, w := range dump.Widgets {
		if !w.Visible || !w.Clickable {
			continue
		}
		for i := 0; i < len(w.Ref); i++ {
			h ^= uint64(w.Ref[i])
			h *= fnvPrime64
		}
		h *= fnvPrime64 // the 0 separator byte
	}
	return iface{
		activity:  dump.Activity,
		fragments: IdentifyFragments(e.ex, dump),
		widgets:   h,
	}, dump, nil
}

// visited reports whether node n has been visited.
func (e *engine) visited(n aftm.Node) bool {
	id, ok := e.model.ID(n)
	return ok && id < len(e.visits) && e.visits[id].Method != ""
}

// visit marks the node numbered id visited (Case 1/2 bookkeeping), recording
// the first route that reached it and enqueuing nothing by itself.
func (e *engine) visit(id int, method ReachMethod, route robotium.Script) bool {
	e.model.VisitID(id)
	if id < len(e.visits) && e.visits[id].Method != "" {
		return false
	}
	for len(e.visits) <= id {
		e.visits = append(e.visits, Visit{})
	}
	n := e.model.NodeOf(id)
	e.visits[id] = Visit{Node: n, Method: method, Route: route}
	if n.Kind == aftm.KindActivity {
		e.visitedActs++
	} else {
		e.visitedFrags++
	}
	ev := session.Event{Kind: session.KindVisit, Method: string(method),
		Script: route.Name, Ops: len(route.Ops)}
	if e.s.Tracing() {
		ev.Node = n.String()
		ev.Msg = "visited " + ev.Node + " via " + ev.Method + " (" + strconv.Itoa(ev.Ops) + " ops)"
	}
	e.s.Trace(ev)
	return true
}

// arrive processes a freshly observed interface: it credits unvisited nodes
// (Cases 1 and 2) and enqueues the interface for Case 3 exploration if new.
func (e *engine) arrive(st iface, method ReachMethod, route robotium.Script) {
	act := aftm.ActivityNode(st.activity)
	if id, ok := e.model.ID(act); ok {
		e.visit(id, method, route)
	} else if e.app.Manifest.HasActivity(st.activity) {
		id, _ := e.model.AddNode(act)
		e.visit(id, method, route)
	}
	for rest := st.fragments; rest != ""; {
		var f string
		f, rest, _ = strings.Cut(rest, ",")
		id, _ := e.model.AddNode(aftm.FragmentNode(f))
		e.visit(id, method, route)
	}
	if !e.explored[st] {
		e.worklist = append(e.worklist, workItem{method: method, target: st, route: route})
	}
}

// Explore is the evolutionary loop of §VI-C. It resolves the input hints,
// logs the §VI-B initial queue generated from the static AFTM while tracing,
// launches the entry activity and replays the directed route seeds. Then it
// runs rounds of breadth-first interface exploration and the forced-start
// second loop until the queue is empty and the AFTM stops changing, the
// budget is spent, or a targeted run observes its API.
func (e *engine) Explore(s *session.Session) error {
	e.s = s
	for _, w := range e.ex.InputWidgets {
		e.hints[w.Ref] = w.Hint
	}
	if s.Tracing() {
		for _, item := range PlanQueue(e.ex.Model) {
			s.Note("queue item " + item.String())
		}
	}
	entry, err := e.app.Manifest.EntryActivity()
	if err != nil {
		return err
	}
	launch := robotium.Script{Name: "launch", Ops: []robotium.Op{robotium.LaunchMain()}}
	d, res, ok := s.RunScript(launch, session.PurposeLaunch)
	if !ok {
		return errors.New("explorer: test-case budget exhausted before launch")
	}
	if res.Err != nil {
		s.Notef("entry launch failed: %v", res.Err)
		return fmt.Errorf("explorer: cannot launch entry %s: %w", entry, res.Err)
	}
	st, _, err := e.observe(d)
	if err != nil {
		return err
	}
	e.arrive(st, ReachLaunch, launch)

	// Directed seeding: replay the statically compiled routes before any
	// frontier work; arrivals enter the normal queue discipline. A failed
	// seed is a near miss, not an error: the frontier picks up from whatever
	// prefix the replay established.
	for _, sc := range e.cfg.Seeds {
		d, res, ok := s.RunScript(sc, session.PurposeSeed)
		if !ok {
			break
		}
		if res.Err != nil {
			s.Notef("seed %s failed at %q: %v", sc.Name, res.FailedOp, res.Err)
			continue
		}
		if st, _, err := e.observe(d); err == nil {
			e.arrive(st, ReachSeed, sc)
		}
	}

	for round := 1; ; round++ {
		progressed := false
		for len(e.worklist) > 0 && !s.Exhausted() {
			item := e.worklist[0]
			e.worklist = e.worklist[1:]
			if e.explored[item.target] {
				continue
			}
			e.explored[item.target] = true
			progressed = true
			if s.Tracing() {
				s.Note("explore interface " + item.target.String() + " (reached via " + string(item.method) + ")")
			}
			e.exploreInterface(item)
		}
		if e.cfg.UseForcedStart && !s.Exhausted() && e.forcedStartPass() {
			progressed = true
		}
		if s.Halted() {
			s.Notef("halted after round %d: target API %s observed (test cases: %d)", round, e.cfg.haltOnAPI, s.Stats().TestCases)
			return nil
		}
		if s.Exhausted() {
			s.Notef("stopped after round %d: test-case budget spent (test cases: %d)", round, s.Stats().TestCases)
			return nil
		}
		if !progressed {
			s.Notef("terminated after round %d: queue empty and AFTM stable (test cases: %d)", round, s.Stats().TestCases)
			return nil
		}
	}
}

// Finish fills the generic outcome with the visited component sets, in the
// model's node order.
func (e *engine) Finish(out *session.Outcome) {
	if e.visitedActs > 0 {
		out.VisitedActivities = make([]string, 0, e.visitedActs)
	}
	if e.visitedFrags > 0 {
		out.VisitedFragments = make([]string, 0, e.visitedFrags)
	}
	e.model.Walk(func(id int, n aftm.Node) {
		if id >= len(e.visits) || e.visits[id].Method == "" {
			return
		}
		if n.Kind == aftm.KindActivity {
			out.VisitedActivities = append(out.VisitedActivities, n.Name)
		} else {
			out.VisitedFragments = append(out.VisitedFragments, n.Name)
		}
	})
}

// replayTo replays a route from launch on the session's reset device,
// verifying arrival. It returns the device with the dump it observed at
// item.target.
func (e *engine) replayTo(item workItem) (*device.Device, device.UIDump, bool) {
	d, res, ok := e.s.RunScript(item.route, session.PurposeReplay)
	if !ok {
		return nil, device.UIDump{}, false
	}
	if res.Err != nil {
		e.s.Notef("replay to %s failed at %q: %v", item.target, res.FailedOp, res.Err)
		return nil, device.UIDump{}, false
	}
	st, dump, err := e.observe(d)
	if err != nil {
		e.s.Notef("replay to %s: observe failed: %v", item.target, err)
		return nil, device.UIDump{}, false
	}
	if st != item.target {
		e.s.Notef("replay diverged: wanted %s, got %s", item.target, st)
		return nil, device.UIDump{}, false
	}
	return d, dump, true
}

// inputValue resolves the value for an input widget: the analyst input file
// first, then the input generator keyed on the widget's hint (§VIII
// extension), then the default filler.
func (e *engine) inputValue(ref string) string {
	if val, ok := e.cfg.Inputs[ref]; ok && val != "" {
		return val
	}
	if e.cfg.InputGen != nil {
		if val, ok := e.cfg.InputGen.Generate(ref, e.hints[ref]); ok {
			return val
		}
	}
	return e.cfg.DefaultInput
}

// exploreInterface is §VI-A Case 3: on a (re)visited interface, complete the
// input fields and click every clickable control top-to-bottom; each click
// that changes the interface is followed by a restart-and-replay so the
// remaining widgets still get clicked. New activities and fragments found on
// the way trigger Cases 1 and 2. Afterwards, reflection items are generated
// for the activity's unvisited dependent fragments.
//
// Each device state is observed once. cur and dump describe d's current
// state whenever observed is set: after a replay, after a click that leaves
// the interface unchanged, and after a BACK that restores it.
func (e *engine) exploreInterface(item workItem) {
	d, dump, ok := e.replayTo(item)
	if !ok {
		return
	}
	cur := item.target
	if dump.HasDialog && d.DismissDialog() == nil {
		// A failed observation leaves an empty dump: nothing to click.
		cur, dump, _ = e.observe(d)
	}
	clickables := dump.ClickableRefs()
	if e.s.Tracing() {
		e.s.Note("interface " + item.target.String() + ": " + strconv.Itoa(len(clickables)) + " clickable widgets")
	}

	observed := true // cur and dump describe d's current state
	fresh := false   // d left the target interface: replay before the next click
	for _, ref := range clickables {
		if fresh {
			if d, dump, ok = e.replayTo(item); !ok {
				return
			}
			cur, fresh = item.target, false
		} else if !observed {
			var err error
			if cur, dump, err = e.observe(d); err != nil {
				return
			}
		}
		if cur != item.target {
			return
		}
		observed = false
		// Compute the fill operations once and apply exactly those, so the
		// recorded route replays the same values even with a stateful
		// generator (inputgen.Dictionary rotates candidates per call).
		fillOps := e.fillOps(dump)
		ownerFrag := widgetFragment(dump, ref)
		for _, op := range fillOps {
			ev := session.Event{Kind: session.KindInputFill, Ref: op.Ref, Value: op.Value}
			if err := d.EnterText(op.Ref, op.Value); err != nil {
				ev.Err = err.Error()
				if e.s.Tracing() {
					ev.Msg = fmt.Sprintf("fill %s: %v", op.Ref, err)
				}
			}
			e.s.Trace(ev)
		}
		if err := d.Click(ref); err != nil {
			e.s.Notef("click %s: %v", ref, err)
			continue
		}
		if d.Crashed() {
			// Case 3: the app crashed — restart and continue clicking.
			e.s.Notef("click %s crashed the app: %s", ref, d.CrashReason())
			e.s.MarkCrash(d.CrashReason(),
				item.route.Append("crash_"+ref, append(fillOps, robotium.Click(ref))...))
			fresh = true
			continue
		}
		after, afterDump, err := e.observe(d)
		if err != nil {
			fresh = true
			continue
		}
		if after == item.target {
			// Interface unchanged (or a popup was handled): move on.
			cur, dump, observed = after, afterDump, true
			continue
		}
		// The interface changed: record transitions and the new state, then
		// kill and restart for the remaining widgets.
		route := item.route.Append("reach_"+ref, append(fillOps, robotium.Click(ref))...)
		e.recordTransition(item.target, ownerFrag, after, ref)
		e.arrive(after, ReachClick, route)
		fresh = true
		// Optional optimization: if BACK restores the interface, keep the
		// session instead of replaying from scratch.
		if e.cfg.UseBackNavigation && after.activity != item.target.activity {
			if err := d.Back(); err == nil {
				if back, backDump, err := e.observe(d); err == nil && back == item.target {
					cur, dump, observed, fresh = back, backDump, true, false
				}
			}
		}
	}

	e.reflectionItems(item)
}

// hasFragment reports whether the comma-joined fragment key holds f.
func hasFragment(key, f string) bool {
	for key != "" {
		var cur string
		cur, key, _ = strings.Cut(key, ",")
		if cur == f {
			return true
		}
	}
	return false
}

// widgetFragment finds which fragment (if any) owned the clicked widget.
func widgetFragment(dump device.UIDump, ref string) string {
	for _, w := range dump.Widgets {
		if w.Ref == ref {
			return w.FromFragment
		}
	}
	return ""
}

// fillOps renders the input fills for an interface as script operations, so
// recorded routes replay the same values fillInputs applied.
func (e *engine) fillOps(dump device.UIDump) []robotium.Op {
	var ops []robotium.Op
	for _, eref := range dump.EditableRefs() {
		if val := e.inputValue(eref); val != "" {
			ops = append(ops, robotium.EnterText(eref, val))
		}
	}
	return ops
}

// recordTransition updates the AFTM with an observed transition (the
// evolutionary model update).
func (e *engine) recordTransition(from iface, ownerFrag string, to iface, ref string) {
	host := func(f string) (string, bool) { return e.ex.Deps.PrimaryHost(f) }
	via := aftm.ViaClick(ref)

	src := aftm.ActivityNode(from.activity)
	if ownerFrag != "" {
		src = aftm.FragmentNode(ownerFrag)
	}
	if to.activity != from.activity {
		if _, err := e.model.MergeEdge(src, aftm.ActivityNode(to.activity), via, host); err != nil {
			e.s.Notef("model update %s -> %s: %v", src, to.activity, err)
		}
	}
	// Fragment arrivals: edge from the click source to each newly shown
	// fragment of the destination interface.
	for rest := to.fragments; rest != ""; {
		var f string
		f, rest, _ = strings.Cut(rest, ",")
		if to.activity == from.activity && hasFragment(from.fragments, f) {
			continue
		}
		fromNode := src
		if to.activity != from.activity {
			// Cross-activity arrival: the fragment edge belongs to the new
			// host activity (A → F_i after merging).
			fromNode = aftm.ActivityNode(to.activity)
		}
		if fromNode == aftm.FragmentNode(f) {
			continue
		}
		if fromNode.Kind == aftm.KindActivity && fromNode.Name == to.activity {
			// The fragment was observed on this very activity's screen:
			// a direct E2, regardless of the fragment's other hosts.
			if _, err := e.model.AddEdge(fromNode, aftm.FragmentNode(f), via); err != nil {
				e.s.Notef("model update %s -> F:%s: %v", fromNode, f, err)
			}
			continue
		}
		if _, err := e.model.MergeEdge(fromNode, aftm.FragmentNode(f), via, host); err != nil {
			e.s.Notef("model update %s -> F:%s: %v", fromNode, f, err)
		}
	}
}

// reflectionItems is §VI-A Case 1's second half: for an activity that uses a
// FragmentManager, one item per dependent unvisited fragment, reached with
// the Java reflection mechanism. A successful explicit click found earlier
// has priority (the fragment would already be visited).
func (e *engine) reflectionItems(item workItem) {
	if !e.cfg.UseReflection {
		return
	}
	act := item.target.activity
	if e.reflected[act] {
		return
	}
	e.reflected[act] = true
	if !e.ex.UsesFragmentManager[act] {
		return
	}
	containers := e.ex.Containers[act]
	if len(containers) == 0 {
		return
	}
	for _, frag := range e.ex.Deps.FragmentsOf[act] {
		if e.visited(aftm.FragmentNode(frag)) {
			continue
		}
		// Only FragmentTransaction-switched fragments have a reflective
		// switch template; merely referenced or view-inflated fragments
		// cannot be confirmed as real loadings (§VII-B2).
		if !e.ex.TxnCommitted[frag] {
			e.s.Notef("reflection skipped for %s: no FragmentTransaction switches it", frag)
			continue
		}
		if e.s.Exhausted() {
			return
		}
		// Try each container of the activity's layouts until one accepts the
		// reflective transaction (the paper constructs the switch "with the
		// Fragment container's resource-ID"; multi-pane activities have more
		// than one candidate).
		for _, container := range containers {
			route := item.route.Append("reflect_"+frag, robotium.Reflect(frag, container))
			d, res, ok := e.s.RunScript(route, session.PurposeReflection)
			if !ok {
				return
			}
			if res.Err != nil {
				ev := session.Event{Kind: session.KindReflectionAttempt,
					Fragment: frag, Activity: act, Container: container, Err: res.Err.Error()}
				if e.s.Tracing() {
					ev.Msg = fmt.Sprintf("reflection to %s in %s via %s failed: %v", frag, act, container, res.Err)
				}
				e.s.Trace(ev)
				continue
			}
			st, _, err := e.observe(d)
			if err != nil {
				continue
			}
			if !hasFragment(st.fragments, frag) {
				ev := session.Event{Kind: session.KindReflectionAttempt,
					Fragment: frag, Activity: act, Container: container,
					Err: "not confirmed by instrumentation"}
				if e.s.Tracing() {
					ev.Msg = fmt.Sprintf("reflection to %s in %s not confirmed by instrumentation", frag, act)
				}
				e.s.Trace(ev)
				continue
			}
			// The reflective transaction committed into this activity's own
			// container: a direct E2.
			if _, err := e.model.AddEdge(aftm.ActivityNode(act), aftm.FragmentNode(frag), aftm.ViaReflection); err != nil {
				e.s.Notef("model update reflect %s: %v", frag, err)
			}
			e.s.Trace(session.Event{Kind: session.KindReflectionAttempt,
				Fragment: frag, Activity: act, Container: container})
			e.arrive(st, ReachReflection, route)
			break
		}
	}
}

// forcedStartPass is the §VI-C second loop: every still-unvisited effective
// Activity is invoked through an empty Intent against the MAIN-patched
// manifest; successful starts are processed like normal arrivals. It reports
// whether anything new was visited or enqueued.
func (e *engine) forcedStartPass() bool {
	progressed := false
	e.unvisited = e.unvisited[:0]
	e.model.Walk(func(id int, n aftm.Node) {
		if n.Kind == aftm.KindActivity && !e.model.VisitedID(id) {
			e.unvisited = append(e.unvisited, id)
		}
	})
	if len(e.forced) < e.model.Len() {
		e.forced = append(e.forced, make([]robotium.Script, e.model.Len()-len(e.forced))...)
	}
	for _, id := range e.unvisited {
		if e.s.Exhausted() {
			break
		}
		n := e.model.NodeOf(id)
		script := e.forced[id]
		if script.Name == "" {
			script = robotium.Script{
				Name: "force_" + n.Name,
				Ops:  []robotium.Op{robotium.ForceStart(n.Name)},
			}
			e.forced[id] = script
		}
		d, res, ok := e.s.RunScript(script, session.PurposeForcedStart)
		if !ok {
			break
		}
		if res.Err != nil {
			ev := session.Event{Kind: session.KindForcedStart, Activity: n.Name,
				Err: res.Err.Error(), Reason: res.CrashReason}
			if e.s.Tracing() {
				ev.Msg = fmt.Sprintf("forced start of %s failed: %v (%s)", n.Name, res.Err, res.CrashReason)
			}
			e.s.Trace(ev)
			continue
		}
		st, _, err := e.observe(d)
		if err != nil {
			continue
		}
		e.s.Trace(session.Event{Kind: session.KindForcedStart, Activity: n.Name})
		e.arrive(st, ReachForced, script)
		progressed = true
	}
	return progressed
}
