// Package statics implements FragDroid's Static Information Extraction phase
// (paper §IV-B and §V). Given a decoded application bundle it produces:
//
//   - the initial Activity & Fragment Transition Model (Algorithm 1),
//     restricted to effective (non-isolated) Activities and Fragments;
//   - the Activity & Fragment dependency relation (Algorithm 2);
//   - the resource dependency that maps widgets to their host Activity or
//     Fragment (Algorithm 3), used by the UI-driving module to identify the
//     current UI state;
//   - the input dependency: the discovered input widgets, to be filled in
//     manually by an analyst, plus the values supplied for this run;
//   - the JSON metadata file recording all view components and the locations
//     they appear (§III).
package statics

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"fragdroid/internal/aftm"
	"fragdroid/internal/apk"
	"fragdroid/internal/callgraph"
	"fragdroid/internal/jdcore"
	"fragdroid/internal/layout"
	"fragdroid/internal/smali"
)

// OwnerKind tells whether a widget belongs to an Activity or a Fragment.
type OwnerKind string

// Owner kinds.
const (
	OwnerActivity OwnerKind = "activity"
	OwnerFragment OwnerKind = "fragment"
)

// WidgetLocation records one view component and the location it appears, the
// unit of the metadata JSON file.
type WidgetLocation struct {
	// Ref is the normalized "@id/name" reference.
	Ref string `json:"ref"`
	// Type is the widget class (Button, EditText, ...).
	Type string `json:"type"`
	// Layout is the layout resource the widget appears in.
	Layout string `json:"layout"`
	// Owner is the class that inflates the layout.
	Owner string `json:"owner"`
	// OwnerKind is the owner's component kind.
	OwnerKind OwnerKind `json:"ownerKind"`
	// Clickable and Input describe interactivity.
	Clickable bool `json:"clickable"`
	Input     bool `json:"input"`
	// InCode reports whether the widget's resource-ID also appears in the
	// owner's code (Algorithm 3's strict both-sides condition).
	InCode bool `json:"inCode"`
}

// ResourceDeps is the output of Algorithm 3: widget → owning component(s).
type ResourceDeps struct {
	// ByWidget maps a normalized widget ref to its locations. A widget may
	// appear in several layouts owned by different components.
	ByWidget map[string][]WidgetLocation
	// ByOwner maps a component class to the widget refs it owns.
	ByOwner map[string][]string
}

// OwnersOf returns the owner classes of a widget ref, sorted, Activities
// before Fragments.
func (r *ResourceDeps) OwnersOf(ref string) []WidgetLocation {
	out := append([]WidgetLocation(nil), r.ByWidget[apk.NormalizeRef(ref)]...)
	sort.SliceStable(out, func(i, j int) bool {
		if (out[i].OwnerKind == OwnerActivity) != (out[j].OwnerKind == OwnerActivity) {
			return out[i].OwnerKind == OwnerActivity
		}
		if out[i].Owner != out[j].Owner {
			return out[i].Owner < out[j].Owner
		}
		return out[i].Layout < out[j].Layout
	})
	return out
}

// Dependencies is the output of Algorithm 2 plus derived host information.
type Dependencies struct {
	// FragmentsOf maps an Activity to the Fragments it depends on.
	FragmentsOf map[string][]string
	// HostsOf maps a Fragment to the Activities that use it.
	HostsOf map[string][]string
}

// PrimaryHost returns the first (sorted) host of a fragment.
func (d *Dependencies) PrimaryHost(frag string) (string, bool) {
	hs := d.HostsOf[frag]
	if len(hs) == 0 {
		return "", false
	}
	return hs[0], true
}

// InputWidget describes one discovered input control; the analyst fills
// Value, reproducing the paper's manually-completed input interface file.
type InputWidget struct {
	Ref    string    `json:"ref"`
	Type   string    `json:"type"`
	Hint   string    `json:"hint,omitempty"`
	Owner  string    `json:"owner"`
	Kind   OwnerKind `json:"ownerKind"`
	Layout string    `json:"layout"`
	Value  string    `json:"value"`
}

// Extraction bundles every artifact of the static phase.
type Extraction struct {
	App *apk.App
	// java is the decompiled source view. Extract computes it eagerly (the
	// static phase reads it immediately); decoded extractions leave it nil
	// and the Java accessor decompiles on first use — the warm replay path
	// never touches source, so eager decompilation there was pure decode
	// overhead.
	java     *jdcore.Program
	javaOnce sync.Once
	// Model is the initial AFTM.
	Model *aftm.Model
	// EffectiveActivities and EffectiveFragments are the filtered node sets
	// (§IV-B2); these are the "Sum" columns of Table I.
	EffectiveActivities []string
	EffectiveFragments  []string
	// Deps is the Algorithm 2 output.
	Deps *Dependencies
	// ResDeps is the Algorithm 3 output.
	ResDeps *ResourceDeps
	// InputWidgets lists discovered input controls (input dependency).
	InputWidgets []InputWidget
	// UsesFragmentManager records, per Activity, whether the class or its
	// inner classes obtain a FragmentManager (explorer Case 1 trigger and
	// precondition of the reflection mechanism).
	UsesFragmentManager map[string]bool
	// SupportFM records whether the Activity uses the support-library
	// FragmentManager, which selects the reflection flavour (§VI-B).
	SupportFM map[string]bool
	// Containers maps each Activity to the fragment-container refs of the
	// layouts it inflates, needed to construct reflective transactions.
	Containers map[string][]string
	// TxnCommitted marks fragments that some FragmentTransaction in the app
	// adds or replaces (or that a layout declares statically). Only these are
	// candidates for the reflective switch: a fragment that is merely
	// referenced or view-inflated cannot be confirmed as "a real loading"
	// (§VII-B2, the com.mobilemotion.dubsmash limitation).
	TxnCommitted map[string]bool
	// SensitiveSites maps each sensitive API statically found in the code to
	// the effective component classes that invoke it — the static half of
	// the SmartDroid-style targeted exploration (§IX).
	SensitiveSites map[string][]string
	// LayoutsOf maps a component class to the layout names it inflates.
	LayoutsOf map[string][]string
	// graph is the interprocedural whole-program call/transition graph,
	// built by the Graph accessor on first use: from graphBlob for a
	// store-loaded extraction, else from the program. Exploration never
	// consults the graph, so building it in Extract, or decoding it on every
	// artifact load, would tax the common case for nothing.
	graph     *callgraph.Graph
	graphOnce sync.Once
	graphBlob []byte
	// staticReach and launcherReach are the two reachability fixpoints
	// behind the StaticReach and LauncherReach accessors, built together on
	// first use: from reachBlob for a store-loaded extraction, else from
	// Graph.
	staticReach   *callgraph.Reach
	launcherReach *callgraph.Reach
	reachOnce     sync.Once
	reachBlob     []byte
}

// Java returns the decompiled source view, decompiling on first use when the
// extraction came from the artifact store (Extract populates it up front).
func (ex *Extraction) Java() *jdcore.Program {
	ex.javaOnce.Do(func() {
		if ex.java == nil {
			ex.java = jdcore.Decompile(ex.App.Program)
		}
	})
	return ex.java
}

// Graph returns the interprocedural whole-program call/transition graph,
// built on the first call. An extraction loaded from the artifact store
// decodes its embedded graph blob; a fresh one, or a stored one whose blob
// does not decode, builds the graph from the program (a rebuild is always
// correct — the graph is a deterministic function of the app — just slower).
func (ex *Extraction) Graph() *callgraph.Graph {
	ex.graphOnce.Do(func() {
		blob := ex.graphBlob
		ex.graphBlob = nil // decoded (or rebuilt) below; don't pin the bytes
		if blob != nil {
			if g, err := callgraph.Decode(blob, ex.App.Program); err == nil {
				ex.graph = g
				return
			}
		}
		ex.graph = callgraph.Build(ex.App, ex.Java())
	})
	return ex.graph
}

// StaticReach returns the attainable-coverage ceiling: reachability with the
// launcher plus every effective Activity as roots, modelling the explorer's
// forced empty-Intent starts (§VI-C). Every component or sensitive API the
// dynamic phase can visit is contained in it. It is built on first use, with
// LauncherReach.
func (ex *Extraction) StaticReach() *callgraph.Reach {
	ex.buildReach()
	return ex.staticReach
}

// LauncherReach returns launcher-only reachability: what a user reaches by
// clicking from the entry Activity, without forced starts. It is built on
// first use, with StaticReach.
func (ex *Extraction) LauncherReach() *callgraph.Reach {
	ex.buildReach()
	return ex.launcherReach
}

// buildReach fills both reach sets once: from the stored reach blob when
// it decodes, else by running the two fixpoints over Graph.
func (ex *Extraction) buildReach() {
	ex.reachOnce.Do(func() {
		blob := ex.reachBlob
		ex.reachBlob = nil
		if blob != nil {
			if static, launcher, err := decodeReachBlob(blob); err == nil {
				ex.staticReach, ex.launcherReach = static, launcher
				return
			}
		}
		g := ex.Graph()
		ex.launcherReach = g.Reach(g.LauncherRoots())
		ex.staticReach = g.Reach(g.ForcedRoots(ex.EffectiveActivities))
	})
}

// Extract runs the full static phase on a loaded app.
func Extract(app *apk.App) (*Extraction, error) {
	ex := &Extraction{
		App:                 app,
		java:                jdcore.Decompile(app.Program),
		Model:               aftm.New(),
		UsesFragmentManager: make(map[string]bool),
		SupportFM:           make(map[string]bool),
		Containers:          make(map[string][]string),
		LayoutsOf:           make(map[string][]string),
		TxnCommitted:        make(map[string]bool),
	}

	entry, err := app.Manifest.EntryActivity()
	if err != nil {
		return nil, err
	}

	// Declared activities come from the manifest — this step already excludes
	// intermediate (non-component) classes, per §IV-B2.
	declared := app.Manifest.ActivityNames()

	// Fragment subclasses via the transitive superclass scan.
	allFragments := app.Program.FragmentClasses()

	// Algorithm 2: Activity & Fragment dependency.
	ex.Deps = buildDependencies(app, declared, allFragments)

	// Effective fragments: a fragment is effective if a statement of it
	// occurs in an (declared) activity class, one of its inner classes, or in
	// another effective fragment (computed to a fixpoint), or if a layout
	// declares it statically.
	effFrags := effectiveFragments(app, declared, allFragments)
	ex.EffectiveFragments = effFrags

	// FragmentManager usage, layout inflation, container discovery.
	ex.scanClasses(declared, effFrags)

	// Algorithm 1: build the transition edges on the Java statements.
	if err := ex.buildEdges(declared, effFrags, entry); err != nil {
		return nil, err
	}

	// Remove isolated activities (the paper keeps the entry). This also
	// numbers the finished model's nodes in Nodes order, once: every
	// exploration derives its model from this one.
	if err := ex.Model.SetEntry(aftm.ActivityNode(entry)); err != nil {
		return nil, err
	}
	ex.Model.RemoveIsolated()
	ex.EffectiveActivities = ex.Model.Activities()

	// Algorithm 3: resource dependency, restricted to effective components.
	ex.ResDeps = buildResourceDeps(app, ex.LayoutsOf, declared)

	// Input dependency: discovered input widgets.
	ex.InputWidgets = discoverInputs(app, ex.ResDeps)

	// Sensitive-API sites across effective components.
	ex.SensitiveSites = sensitiveSites(ex.Java(), app.Program,
		ex.EffectiveActivities, ex.EffectiveFragments)

	return ex, nil
}

// sensitiveSites scans the lowered statements of every effective component
// (and its inner classes) for sensitive calls, returning api → owner classes.
func sensitiveSites(java *jdcore.Program, prog *smali.Program, activities, fragments []string) map[string][]string {
	out := make(map[string][]string)
	seen := make(map[string]bool)
	record := func(owner string) {
		for _, cn := range prog.ClassAndInner(owner) {
			jc := java.Class(cn)
			if jc == nil {
				continue
			}
			for _, m := range jc.Methods {
				for i := range m.Statements {
					st := &m.Statements[i]
					if st.Kind != jdcore.StmtSensitiveCall {
						continue
					}
					key := st.API + "|" + owner
					if seen[key] {
						continue
					}
					seen[key] = true
					out[st.API] = append(out[st.API], owner)
				}
			}
		}
	}
	for _, a := range activities {
		record(a)
	}
	for _, f := range fragments {
		record(f)
	}
	for api := range out {
		sort.Strings(out[api])
	}
	return out
}

// refsInClass collects normalized resource refs mentioned by a class's code.
func refsInClass(c *smali.Class) map[string]bool {
	out := make(map[string]bool)
	for _, m := range c.Methods {
		for _, ins := range m.Body {
			for _, a := range ins.Args {
				if strings.HasPrefix(a, "@") {
					out[apk.NormalizeRef(a)] = true
				}
			}
		}
	}
	return out
}

// scanClasses fills UsesFragmentManager, SupportFM, LayoutsOf and Containers.
func (ex *Extraction) scanClasses(activities, fragments []string) {
	prog := ex.App.Program
	record := func(owner string, classes []string) {
		for _, cn := range classes {
			c := prog.Class(cn)
			if c == nil {
				continue
			}
			for _, m := range c.Methods {
				for _, ins := range m.Body {
					switch ins.Op {
					case smali.OpGetFragmentManager:
						ex.UsesFragmentManager[owner] = true
					case smali.OpGetSupportFragmentManager:
						ex.UsesFragmentManager[owner] = true
						ex.SupportFM[owner] = true
					case smali.OpSetContentView:
						if name, ok := layoutName(ins.Args[0]); ok {
							ex.LayoutsOf[owner] = appendUnique(ex.LayoutsOf[owner], name)
						}
					case smali.OpTxnAdd, smali.OpTxnReplace:
						ex.TxnCommitted[ins.Args[1]] = true
					}
				}
			}
		}
	}
	for _, a := range activities {
		record(a, prog.ClassAndInner(a))
	}
	for _, f := range fragments {
		record(f, prog.ClassAndInner(f))
	}
	// Containers: FrameLayouts with IDs in the layouts each activity inflates.
	for _, a := range activities {
		for _, ln := range ex.LayoutsOf[a] {
			l := ex.App.Layouts[ln]
			if l == nil {
				continue
			}
			for _, ref := range l.Containers() {
				ex.Containers[a] = appendUnique(ex.Containers[a], apk.NormalizeRef(ref))
			}
		}
	}
	// Statically declared fragments are FragmentManager-managed too.
	for _, ln := range ex.App.LayoutNames() {
		for _, sf := range ex.App.Layouts[ln].StaticFragments() {
			ex.TxnCommitted[sf] = true
		}
	}
}

func layoutName(ref string) (string, bool) {
	kind, name, err := parseRefKindName(ref)
	if err != nil || kind != "layout" {
		return "", false
	}
	return name, true
}

func parseRefKindName(ref string) (string, string, error) {
	s := strings.TrimPrefix(strings.TrimPrefix(ref, "@+"), "@")
	i := strings.IndexByte(s, '/')
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("statics: malformed ref %q", ref)
	}
	return s[:i], s[i+1:], nil
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// buildDependencies is Algorithm 2: for every declared Activity, walk the
// classes used by the Activity and its inner classes; any used class whose
// inheritance chain contains a Fragment base class joins the relation.
func buildDependencies(app *apk.App, activities, fragments []string) *Dependencies {
	d := &Dependencies{
		FragmentsOf: make(map[string][]string),
		HostsOf:     make(map[string][]string),
	}
	prog := app.Program
	fragSet := make(map[string]bool, len(fragments))
	for _, f := range fragments {
		fragSet[f] = true
	}
	for _, a := range activities {
		seen := make(map[string]bool)
		for _, aClass := range prog.ClassAndInner(a) {
			for _, used := range prog.UsedClasses(aClass) {
				if seen[used] || !fragSet[used] {
					continue
				}
				// Confirm via the superclass chain, as the algorithm does.
				if !prog.IsFragmentClass(used) {
					continue
				}
				seen[used] = true
				d.FragmentsOf[a] = append(d.FragmentsOf[a], used)
				d.HostsOf[used] = append(d.HostsOf[used], a)
			}
		}
		// Static <fragment> declarations in the activity's layouts also bind.
		for _, cn := range prog.ClassAndInner(a) {
			c := prog.Class(cn)
			if c == nil {
				continue
			}
			for _, m := range c.Methods {
				for _, ins := range m.Body {
					if ins.Op != smali.OpSetContentView {
						continue
					}
					name, ok := layoutName(ins.Args[0])
					if !ok {
						continue
					}
					l := app.Layouts[name]
					if l == nil {
						continue
					}
					for _, sf := range l.StaticFragments() {
						if seen[sf] || !fragSet[sf] {
							continue
						}
						seen[sf] = true
						d.FragmentsOf[a] = append(d.FragmentsOf[a], sf)
						d.HostsOf[sf] = append(d.HostsOf[sf], a)
					}
				}
			}
		}
		sort.Strings(d.FragmentsOf[a])
	}
	for f := range d.HostsOf {
		sort.Strings(d.HostsOf[f])
	}
	return d
}

// effectiveFragments filters the fragment subclass list down to fragments
// with a statement in an effective Activity (or reachable fragment), plus
// static layout declarations, computed to a fixpoint (§IV-B2).
func effectiveFragments(app *apk.App, activities, fragments []string) []string {
	prog := app.Program
	fragSet := make(map[string]bool, len(fragments))
	for _, f := range fragments {
		fragSet[f] = true
	}
	eff := make(map[string]bool)

	// Seed: fragments referenced from activities (incl. inner classes) or
	// declared in a layout.
	referencedBy := func(owner string) []string {
		var out []string
		for _, cn := range prog.ClassAndInner(owner) {
			for _, used := range prog.UsedClasses(cn) {
				if fragSet[used] {
					out = append(out, used)
				}
			}
		}
		return out
	}
	for _, a := range activities {
		for _, f := range referencedBy(a) {
			eff[f] = true
		}
	}
	for _, l := range app.Layouts {
		for _, sf := range l.StaticFragments() {
			if fragSet[sf] {
				eff[sf] = true
			}
		}
	}
	// Fixpoint: fragments referenced from effective fragments.
	for changed := true; changed; {
		changed = false
		for f := range eff {
			for _, g := range referencedBy(f) {
				if !eff[g] {
					eff[g] = true
					changed = true
				}
			}
		}
	}
	out := make([]string, 0, len(eff))
	for f := range eff {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// buildEdges is Algorithm 1 run over the lowered Java statements, extended
// with the fragment-transaction statements (the strongest A→F signals) and
// routed through the model's seven-to-three edge merging.
func (ex *Extraction) buildEdges(activities, fragments []string, entry string) error {
	prog := ex.App.Program
	man := ex.App.Manifest
	effFrag := make(map[string]bool, len(fragments))
	for _, f := range fragments {
		effFrag[f] = true
	}
	declared := make(map[string]bool, len(activities))
	for _, a := range activities {
		declared[a] = true
	}
	host := func(f string) (string, bool) { return ex.Deps.PrimaryHost(f) }

	// addFragEdge adds From → F for a fragment statement, honouring the
	// Algorithm-1 condition "if F1 ∈ A0" (the dependency relation). When the
	// source activity is itself a host of the fragment the edge is a direct
	// E2 — a fragment used by several Activities (§V-A) is internal to each
	// of them, so the A → F_o folding of §IV-A must not reroute it to the
	// fragment's first host.
	addFragEdge := func(from aftm.Node, frag, via string) error {
		if !effFrag[frag] {
			return nil
		}
		if from.Kind == aftm.KindActivity {
			if !contains(ex.Deps.FragmentsOf[from.Name], frag) {
				return nil
			}
			_, err := ex.Model.AddEdge(from, aftm.FragmentNode(frag), via)
			return err
		}
		_, err := ex.Model.MergeEdge(from, aftm.FragmentNode(frag), via, host)
		return err
	}

	// edge applies one lowered statement of owner's code to the model.
	edge := func(owner aftm.Node, st *jdcore.Statement) error {
		switch st.Kind {
		case jdcore.StmtNewIntentExplicit, jdcore.StmtSetClass:
			if declared[st.Class2] {
				_, err := ex.Model.MergeEdge(owner, aftm.ActivityNode(st.Class2), aftm.ViaIntent, host)
				return err
			}
		case jdcore.StmtNewIntentAction, jdcore.StmtSetAction:
			if target, ok := man.ActivityForAction(st.Action); ok && declared[target] && target != owner.Name {
				_, err := ex.Model.MergeEdge(owner, aftm.ActivityNode(target), aftm.ViaAction(st.Action), host)
				return err
			}
		case jdcore.StmtNewInstance, jdcore.StmtNewInstanceCall, jdcore.StmtInstanceOf:
			if effFrag[st.Class1] {
				return addFragEdge(owner, st.Class1, "")
			}
		case jdcore.StmtTxnAdd, jdcore.StmtTxnReplace, jdcore.StmtInflateFragmentView:
			return addFragEdge(owner, st.Class1, aftm.ViaTransaction)
		}
		return nil
	}

	// scan walks "all lines in A0.java" (Algorithm 1): every statement of
	// owner and its inner classes, method by method in declaration order.
	scan := func(owner aftm.Node, classes []string) error {
		for _, cn := range classes {
			jc := ex.Java().Class(cn)
			if jc == nil {
				continue
			}
			for _, m := range jc.Methods {
				for i := range m.Statements {
					if err := edge(owner, &m.Statements[i]); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}

	for _, a := range activities {
		if err := scan(aftm.ActivityNode(a), prog.ClassAndInner(a)); err != nil {
			return err
		}
	}
	for _, f := range fragments {
		if err := scan(aftm.FragmentNode(f), prog.ClassAndInner(f)); err != nil {
			return err
		}
	}
	// Static <fragment> declarations create A → F edges directly.
	for _, a := range activities {
		for _, ln := range ex.LayoutsOf[a] {
			l := ex.App.Layouts[ln]
			if l == nil {
				continue
			}
			for _, sf := range l.StaticFragments() {
				if err := addFragEdge(aftm.ActivityNode(a), sf, aftm.ViaTransaction); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// buildResourceDeps is Algorithm 3. Ownership follows layout inflation: the
// component that inflates a layout owns its widgets; when several components
// inflate one layout, Activities take precedence over Fragments (the
// algorithm's activity-first loop order). InCode records the strict
// both-sides condition of the paper (resource-ID appears in the owner's code
// too).
func buildResourceDeps(app *apk.App, layoutsOf map[string][]string, activities []string) *ResourceDeps {
	rd := &ResourceDeps{
		ByWidget: make(map[string][]WidgetLocation),
		ByOwner:  make(map[string][]string),
	}
	actSet := make(map[string]bool, len(activities))
	for _, a := range activities {
		actSet[a] = true
	}
	// layout -> owners (activities first).
	ownersOfLayout := make(map[string][]ownerRef)
	var ownerClasses []string
	for owner := range layoutsOf {
		ownerClasses = append(ownerClasses, owner)
	}
	sort.Strings(ownerClasses)
	for _, owner := range ownerClasses {
		kind := OwnerFragment
		if actSet[owner] {
			kind = OwnerActivity
		}
		for _, ln := range layoutsOf[owner] {
			ownersOfLayout[ln] = append(ownersOfLayout[ln], ownerRef{owner, kind})
		}
	}
	for ln := range ownersOfLayout {
		sort.SliceStable(ownersOfLayout[ln], func(i, j int) bool {
			oi, oj := ownersOfLayout[ln][i], ownersOfLayout[ln][j]
			if (oi.kind == OwnerActivity) != (oj.kind == OwnerActivity) {
				return oi.kind == OwnerActivity
			}
			return oi.name < oj.name
		})
	}

	codeRefs := make(map[string]map[string]bool) // owner -> refs in code
	for owner := range layoutsOf {
		refs := make(map[string]bool)
		for _, cn := range app.Program.ClassAndInner(owner) {
			c := app.Program.Class(cn)
			if c == nil {
				continue
			}
			for r := range refsInClass(c) {
				refs[r] = true
			}
		}
		codeRefs[owner] = refs
	}

	layoutNames := make([]string, 0, len(app.Layouts))
	for ln := range app.Layouts {
		layoutNames = append(layoutNames, ln)
	}
	sort.Strings(layoutNames)
	for _, ln := range layoutNames {
		owners := ownersOfLayout[ln]
		if len(owners) == 0 {
			continue
		}
		best := owners[0]
		l := app.Layouts[ln]
		l.Walk(func(w *layout.Widget) bool {
			if w.IDRef == "" {
				return true
			}
			typ, clickable, input := w.Type, w.Clickable(), w.Input()
			ref := apk.NormalizeRef(w.IDRef)
			// Rule out non-interaction widgets that never appear in code.
			inCode := codeRefs[best.name][ref]
			if !clickable && !input && !inCode {
				return true
			}
			loc := WidgetLocation{
				Ref:       ref,
				Type:      typ,
				Layout:    ln,
				Owner:     best.name,
				OwnerKind: best.kind,
				Clickable: clickable,
				Input:     input,
				InCode:    inCode,
			}
			rd.ByWidget[ref] = append(rd.ByWidget[ref], loc)
			rd.ByOwner[best.name] = appendUnique(rd.ByOwner[best.name], ref)
			return true
		})
	}
	for owner := range rd.ByOwner {
		sort.Strings(rd.ByOwner[owner])
	}
	return rd
}

type ownerRef struct {
	name string
	kind OwnerKind
}

// discoverInputs lists every input widget with its owning component.
func discoverInputs(app *apk.App, rd *ResourceDeps) []InputWidget {
	var out []InputWidget
	seen := make(map[string]bool)
	var refs []string
	for ref := range rd.ByWidget {
		refs = append(refs, ref)
	}
	sort.Strings(refs)
	for _, ref := range refs {
		for _, loc := range rd.ByWidget[ref] {
			if !loc.Input || seen[ref+"|"+loc.Owner] {
				continue
			}
			seen[ref+"|"+loc.Owner] = true
			hint := ""
			if l := app.Layouts[loc.Layout]; l != nil {
				l.Walk(func(w *layout.Widget) bool {
					if apk.NormalizeRef(w.IDRef) == ref {
						hint = w.Hint
						return false
					}
					return true
				})
			}
			out = append(out, InputWidget{
				Ref:    ref,
				Type:   loc.Type,
				Hint:   hint,
				Owner:  loc.Owner,
				Kind:   loc.OwnerKind,
				Layout: loc.Layout,
			})
		}
	}
	return out
}
