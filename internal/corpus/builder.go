package corpus

import (
	"fmt"
	"sort"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/layout"
	"fragdroid/internal/manifest"
	"fragdroid/internal/sensitive"
	"fragdroid/internal/smali"
)

// lname lowercases a simple class name for use in resource identifiers.
func lname(name string) string { return strings.ToLower(name) }

// Ref builders shared between the generator and the exported helpers below.
// They take lowercased names, as the generator derives them once per
// component, so each ref costs one concatenation.
func refRoot(act string) string              { return "@id/" + act + "_root" }
func refTitle(act string) string             { return "@id/" + act + "_title" }
func refNavButton(from, to string) string    { return "@id/" + from + "_btn_" + to }
func refActionButton(from, to string) string { return "@id/" + from + "_act_" + to }
func refInput(from, to string) string        { return "@id/" + from + "_input_" + to }
func refDrawer(act string) string            { return "@id/" + act + "_drawer" }
func refDrawerToggle(act string) string      { return "@id/" + act + "_drawer_toggle" }
func refSlideDrawer(act string) string       { return "@id/" + act + "_slide" }
func refMenuButton(from, to string) string   { return "@id/" + from + "_menu_" + to }
func refSlideMenuButton(from, to string) string {
	return "@id/" + from + "_smenu_" + to
}
func refMenuFragButton(act, frag string) string {
	return "@id/" + act + "_menu_f_" + frag
}
func refSlideMenuFragButton(act, frag string) string {
	return "@id/" + act + "_smenu_f_" + frag
}
func refTabButton(act, frag string) string   { return "@id/" + act + "_tab_" + frag }
func refContainer(act string) string         { return "@id/" + act + "_container" }
func refStaticFrag(act, frag string) string  { return "@id/" + act + "_sfrag_" + frag }
func refFragRoot(frag string) string         { return "@id/" + frag + "_root" }
func refFragLabel(frag string) string        { return "@id/" + frag + "_label" }
func refSwitchButton(from, to string) string { return "@id/" + from + "_sw_" + to }
func refLayout(kind, low string) string      { return "@layout/" + kind + "_" + low }

// Exported ref helpers for harness code, so it can address generated widgets
// symbolically. They take simple names and lowercase them.
//
// NavButtonRef addresses the visible button for a TransButton transition;
// InputRef the gate field of a gated transition; DrawerToggleRef the drawer
// toggle; TabButtonRef the tab of a WireTxnButton wire; ContainerRef the
// fragment container of an activity; SwitchButtonRef the F→F switch button.
func NavButtonRef(from, to string) string    { return refNavButton(lname(from), lname(to)) }
func InputRef(from, to string) string        { return refInput(lname(from), lname(to)) }
func DrawerToggleRef(act string) string      { return refDrawerToggle(lname(act)) }
func MenuButtonRef(from, to string) string   { return refMenuButton(lname(from), lname(to)) }
func TabButtonRef(act, frag string) string   { return refTabButton(lname(act), lname(frag)) }
func ContainerRef(act string) string         { return refContainer(lname(act)) }
func SwitchButtonRef(from, to string) string { return refSwitchButton(lname(from), lname(to)) }
func MenuFragButtonRef(act, frag string) string {
	return refMenuFragButton(lname(act), lname(frag))
}

// handlerGo and friends name generated handler methods.
func handlerGo(to string) string     { return "onGo" + to }
func handlerAct(to string) string    { return "onAct" + to }
func handlerShow(frag string) string { return "onShow" + frag }
func handlerSwitch(to string) string { return "onSw" + to }

const handlerToggleDrawer = "onToggleDrawer"

// publicAccess is the access list of every generated class and method. It
// is shared and read-only: nothing writes a class's or method's Access.
var publicAccess = []string{"public"}

// defaultGateValue is the expected input when a gate omits Expected, for
// the target activity's lowercased name.
func defaultGateValue(to string) string { return "letmein-" + to }

// GateValue exposes the default gate value for harness input files.
func GateValue(g *InputGate, to string) string {
	if g != nil && g.Expected != "" {
		return g.Expected
	}
	return defaultGateValue(lname(to))
}

// BuildArchive generates the .sapk archive for a spec.
func BuildArchive(spec *AppSpec) (*apk.Archive, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	arch, err := newGenerator(spec).build().encode()
	if err != nil {
		return nil, fmt.Errorf("corpus: build %s: %w", spec.Package, err)
	}
	if spec.Packed {
		arch.MarkPacked()
	}
	return arch, nil
}

// BuildApp generates the app and assembles it directly from the in-memory
// parts — no serialize-then-reparse round trip through the archive text.
// apk.Assemble runs the same validation and lint steps as apk.Load, and is
// the only validation of the generated layouts, so the resulting App is
// indistinguishable from the archive path (TestBuildAppMatchesArchiveRoundTrip
// holds both paths together). Packed specs fail with apk.ErrPacked, as they
// would in the real pipeline.
func BuildApp(spec *AppSpec) (*apk.App, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Packed {
		return nil, apk.ErrPacked
	}
	p := newGenerator(spec).build()
	app, err := apk.Assemble(p.manifest, p.layouts, p.classes)
	if err != nil {
		return nil, fmt.Errorf("corpus: build %s: %w", spec.Package, err)
	}
	return app, nil
}

// parts is the in-memory form of a generated app: the decoded artifacts that
// encode() serializes into a .sapk and apk.Assemble consumes directly.
type parts struct {
	manifest *manifest.Manifest
	layouts  []*layout.Layout
	classes  []*smali.Class
}

// encode serializes the parts through the real encoders into an archive.
func (p *parts) encode() (*apk.Archive, error) {
	arch := apk.NewArchive()
	data, err := p.manifest.Encode()
	if err != nil {
		return nil, err
	}
	if err := arch.Put(apk.ManifestPath, data); err != nil {
		return nil, err
	}
	for _, l := range p.layouts {
		if err := putLayout(arch, l); err != nil {
			return nil, err
		}
	}
	for _, c := range p.classes {
		if err := putClass(arch, c); err != nil {
			return nil, err
		}
	}
	return arch, nil
}

// generator builds one app. newGenerator derives, by component index,
// everything the layout, class and manifest builders share: each
// activity's and fragment's lowercased name, qualified class name and
// layout, and the links between components with the handler names and
// refs both ends of a link use. Each derived string is made once; the
// builders only concatenate the refs used once.
type generator struct {
	spec  *AppSpec
	acts  []actInfo  // by index in spec.Activities
	frags []fragInfo // by index in spec.Fragments
	recvs []recvInfo // by index in spec.Receivers
}

// component holds the names derived from an activity's or fragment's
// simple name.
type component struct {
	low    string // lowercased, the stem of its resource names
	class  string // qualified class name
	layout string // "@layout/<kind>_<low>", the reference to its layout
}

// actInfo is one activity with its derived names and resolved links.
type actInfo struct {
	component
	spec      *ActivitySpec
	out       []transLink // transitions leaving it, in spec order
	wires     []wireLink  // spec.Wires, resolved
	container string      // its fragment container's ref, if it wires a fragment
	// drawer and slide report whether its layout has a toggled drawer and
	// a slide-only drawer.
	drawer, slide bool
}

// fragInfo is one fragment with its derived names and resolved links.
type fragInfo struct {
	component
	spec     *FragmentSpec
	host     *actInfo     // the first activity wiring it
	switches []switchLink // switches leaving it, in spec order
}

// recvInfo is one receiver with its class name and the activity it starts.
type recvInfo struct {
	spec   *ReceiverSpec
	class  string
	starts *actInfo // nil if it starts none
}

// transLink is an outgoing transition with what its button and its handler
// share.
type transLink struct {
	*Transition
	to      *actInfo
	handler string // the handler method's name
	field   string // the gate's input ref, for a gated transition
}

// gateValue is the input the gate of a gated transition expects.
func (l *transLink) gateValue() string {
	if l.Gate.Expected != "" {
		return l.Gate.Expected
	}
	return defaultGateValue(l.to.low)
}

// wireLink is a fragment wire with what its widget and its handler share.
type wireLink struct {
	FragmentWire
	frag    *fragInfo
	handler string // the onShow handler, for button- and drawer-committed wires
	tab     string // the tab button's ref, for WireTxnButton
}

// switchLink is an F→F switch with its handler's name.
type switchLink struct {
	to      *fragInfo
	handler string
}

// newGenerator derives the names and links of a validated spec.
func newGenerator(spec *AppSpec) *generator {
	g := &generator{
		spec:  spec,
		acts:  make([]actInfo, len(spec.Activities)),
		frags: make([]fragInfo, len(spec.Fragments)),
		recvs: make([]recvInfo, len(spec.Receivers)),
	}
	actAt := make(map[string]*actInfo, len(g.acts))
	nWires := 0
	for i := range g.acts {
		a := &g.acts[i]
		a.spec = &spec.Activities[i]
		a.component = g.derive("activity", a.spec.Name)
		actAt[a.spec.Name] = a
		nWires += len(a.spec.Wires)
	}
	fragAt := make(map[string]*fragInfo, len(g.frags))
	for i := range g.frags {
		f := &g.frags[i]
		f.spec = &spec.Fragments[i]
		f.component = g.derive("fragment", f.spec.Name)
		fragAt[f.spec.Name] = f
	}
	for i := range spec.Transition {
		tr := &spec.Transition[i]
		from := actAt[tr.From]
		handler := handlerGo
		switch tr.Kind {
		case TransAction:
			handler = handlerAct
		case TransDrawerButton:
			from.drawer = true
		case TransSlideDrawer:
			from.slide = true
		}
		l := transLink{Transition: tr, to: actAt[tr.To], handler: handler(tr.To)}
		if tr.Gate != nil {
			l.field = tr.Gate.Field
			if l.field == "" {
				l.field = refInput(from.low, l.to.low)
			}
		}
		from.out = append(from.out, l)
	}
	wires := make([]wireLink, 0, nWires)
	for i := range g.acts {
		a := &g.acts[i]
		if len(a.spec.Wires) == 0 {
			continue
		}
		a.container = refContainer(a.low)
		first := len(wires)
		for _, w := range a.spec.Wires {
			l := wireLink{FragmentWire: w, frag: fragAt[w.Fragment]}
			if l.frag.host == nil {
				l.frag.host = a
			}
			switch w.Kind {
			case WireTxnButton:
				l.handler = handlerShow(w.Fragment)
				l.tab = refTabButton(a.low, l.frag.low)
			case WireTxnDrawer:
				a.drawer = true
				l.handler = handlerShow(w.Fragment)
			case WireTxnSlideDrawer:
				a.slide = true
				l.handler = handlerShow(w.Fragment)
			}
			wires = append(wires, l)
		}
		a.wires = wires[first:len(wires):len(wires)]
	}
	for _, sw := range spec.Switches {
		from := fragAt[sw.From]
		from.switches = append(from.switches, switchLink{to: fragAt[sw.To], handler: handlerSwitch(sw.To)})
	}
	for i := range spec.Receivers {
		r := &spec.Receivers[i]
		g.recvs[i] = recvInfo{spec: r, class: g.fq(r.Name), starts: actAt[r.StartsActivity]}
	}
	return g
}

func (g *generator) fq(name string) string { return g.spec.Package + "." + name }

// derive derives the names of an activity ("activity") or fragment
// ("fragment").
func (g *generator) derive(kind, name string) component {
	low := lname(name)
	return component{low: low, class: g.fq(name), layout: refLayout(kind, low)}
}

// layoutName is the name of the layout a "@layout/..." reference names.
func layoutName(ref string) string { return ref[len("@layout/"):] }

func (g *generator) build() *parts {
	p := &parts{
		manifest: g.buildManifest(),
		layouts:  make([]*layout.Layout, 0, len(g.acts)+len(g.frags)),
		classes:  make([]*smali.Class, 0, len(g.acts)+len(g.frags)+len(g.recvs)),
	}
	for i := range g.acts {
		a := &g.acts[i]
		p.layouts = append(p.layouts, g.activityLayout(a))
		p.classes = append(p.classes, g.activityClass(a))
	}
	for i := range g.frags {
		f := &g.frags[i]
		p.layouts = append(p.layouts, g.fragmentLayout(f))
		p.classes = append(p.classes, g.fragmentClass(f))
	}
	for i := range g.recvs {
		p.classes = append(p.classes, g.receiverClass(&g.recvs[i]))
	}
	return p
}

func (g *generator) receiverClass(r *recvInfo) *smali.Class {
	c := &smali.Class{Name: r.class, Super: smali.ClassReceiver, Access: publicAccess}
	n := len(r.spec.Sensitive)
	if r.starts != nil {
		n += 3
	}
	body := make([]smali.Instr, 0, max(n, 1))
	for _, api := range r.spec.Sensitive {
		body = append(body, ins(smali.OpInvokeSensitive, api))
	}
	if target := r.starts; target != nil {
		body = append(body, ins(smali.OpNewIntent, r.class, target.class))
		if target.spec.RequiresExtra != "" {
			body = append(body, ins(smali.OpPutExtra, target.spec.RequiresExtra, "ctx"))
		}
		body = append(body, ins(smali.OpStartActivity))
	}
	if len(body) == 0 {
		body = append(body, ins(smali.OpLog, "broadcast received"))
	}
	c.Methods = []*smali.Method{{Name: "onReceive", Access: publicAccess, Body: body}}
	return c
}

func putLayout(arch *apk.Archive, l *layout.Layout) error {
	data, err := l.Encode()
	if err != nil {
		return err
	}
	return arch.Put(apk.LayoutDir+l.Name+".xml", data)
}

func putClass(arch *apk.Archive, c *smali.Class) error {
	p := apk.SmaliDir + strings.ReplaceAll(c.Name, ".", "/") + ".smali"
	return arch.Put(p, smali.WriteClass(c))
}

func (g *generator) buildManifest() *manifest.Manifest {
	m := manifest.Manifest{Package: g.spec.Package, VersionName: "1.0"}
	m.Application.Label = g.spec.Package
	// Declare the permissions guarding every sensitive API the app invokes,
	// like a well-formed Play Store app would.
	for _, p := range g.requiredPermissions() {
		m.Permissions = append(m.Permissions, manifest.Permission{Name: p})
	}
	m.Application.Activities = make([]manifest.Activity, 0, len(g.acts))
	for i := range g.acts {
		a := &g.acts[i]
		act := manifest.Activity{Name: a.class}
		if a.spec.Launcher {
			act.Filters = append(act.Filters, manifest.IntentFilter{
				Actions:    []manifest.Action{{Name: manifest.ActionMain}},
				Categories: []manifest.Category{{Name: manifest.CategoryLauncher}},
			})
		}
		// Intent-filter actions for implicit transitions targeting this
		// activity.
		for _, tr := range g.spec.Transition {
			if tr.Kind == TransAction && tr.To == a.spec.Name {
				act.Filters = append(act.Filters, manifest.IntentFilter{
					Actions: []manifest.Action{{Name: tr.Action}},
				})
			}
		}
		if a.spec.DeepLink != "" {
			act.Filters = append(act.Filters, manifest.IntentFilter{
				Actions: []manifest.Action{{Name: manifest.ActionView}},
				Categories: []manifest.Category{
					{Name: manifest.CategoryDefault},
					{Name: manifest.CategoryBrowsable},
				},
				Data: []manifest.Data{{URI: a.spec.DeepLink}},
			})
		}
		m.Application.Activities = append(m.Application.Activities, act)
	}
	for _, r := range g.recvs {
		rec := manifest.Receiver{Name: r.class}
		for _, action := range r.spec.Actions {
			rec.Filters = append(rec.Filters, manifest.IntentFilter{
				Actions: []manifest.Action{{Name: action}},
			})
		}
		m.Application.Receivers = append(m.Application.Receivers, rec)
	}
	return &m
}

// requiredPermissions derives the unique, sorted permission set from all
// sensitive APIs the spec invokes.
func (g *generator) requiredPermissions() []string {
	set := make(map[string]bool)
	add := func(apis []string) {
		for _, api := range apis {
			for _, p := range sensitive.PermissionsFor(api) {
				set[p] = true
			}
		}
	}
	for _, a := range g.spec.Activities {
		add(a.Sensitive)
	}
	for _, f := range g.spec.Fragments {
		add(f.Sensitive)
	}
	for _, r := range g.spec.Receivers {
		add(r.Sensitive)
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// needsContainer reports whether the activity's layout has a fragment
// container: some wire commits or inflates a fragment into it.
func needsContainer(a *ActivitySpec) bool {
	for _, w := range a.Wires {
		switch w.Kind {
		case WireTxnOnCreate, WireTxnButton, WireTxnDrawer, WireTxnSlideDrawer, WireInflate:
			return true
		}
	}
	return false
}

// activityLayout builds an activity's layout. It counts each child list
// first, so every list is sized once.
func (g *generator) activityLayout(a *actInfo) *layout.Layout {
	nRoot, nDrawer, nSlide := 1, 0, 0 // the root holds the title
	if a.drawer {
		nRoot += 2 // the drawer's toggle and the drawer
	}
	if a.slide {
		nRoot++
	}
	container := needsContainer(a.spec)
	if container {
		nRoot++
	}
	for i := range a.out {
		switch tr := &a.out[i]; tr.Kind {
		case TransButton:
			nRoot++
			if tr.Gate != nil {
				nRoot++ // the gate's input field
			}
		case TransAction:
			nRoot++
		case TransDrawerButton:
			nDrawer++
		case TransSlideDrawer:
			nSlide++
		}
	}
	for i := range a.wires {
		switch a.wires[i].Kind {
		case WireTxnButton, WireStatic:
			nRoot++
		case WireTxnDrawer:
			nDrawer++
		case WireTxnSlideDrawer:
			nSlide++
		}
	}

	root := layout.RootN(layout.TypeLinearLayout, nRoot).ID(refRoot(a.low))
	root.Child(layout.Root(layout.TypeTextView).ID(refTitle(a.low)).Text(a.spec.Name))

	if a.drawer {
		root.Child(layout.Root(layout.TypeImageButton).
			ID(refDrawerToggle(a.low)).OnClick(handlerToggleDrawer))
		drawer := layout.RootN(layout.TypeDrawerLayout, nDrawer).ID(refDrawer(a.low)).HiddenW()
		for i := range a.out {
			if tr := &a.out[i]; tr.Kind == TransDrawerButton {
				drawer.Child(layout.Root(layout.TypeButton).
					ID(refMenuButton(a.low, tr.to.low)).Text(tr.To).OnClick(tr.handler))
			}
		}
		for i := range a.wires {
			if w := &a.wires[i]; w.Kind == WireTxnDrawer {
				drawer.Child(layout.Root(layout.TypeButton).
					ID(refMenuFragButton(a.low, w.frag.low)).Text(w.Fragment).
					OnClick(w.handler))
			}
		}
		root.Child(drawer)
	}
	if a.slide {
		slide := layout.RootN(layout.TypeDrawerLayout, nSlide).ID(refSlideDrawer(a.low)).HiddenW()
		for i := range a.out {
			if tr := &a.out[i]; tr.Kind == TransSlideDrawer {
				slide.Child(layout.Root(layout.TypeButton).
					ID(refSlideMenuButton(a.low, tr.to.low)).Text(tr.To).OnClick(tr.handler))
			}
		}
		for i := range a.wires {
			if w := &a.wires[i]; w.Kind == WireTxnSlideDrawer {
				slide.Child(layout.Root(layout.TypeButton).
					ID(refSlideMenuFragButton(a.low, w.frag.low)).Text(w.Fragment).
					OnClick(w.handler))
			}
		}
		root.Child(slide)
	}

	for i := range a.out {
		switch tr := &a.out[i]; tr.Kind {
		case TransButton:
			if tr.Gate != nil {
				hint := tr.Gate.Hint
				if hint == "" {
					hint = "code for " + tr.To
				}
				root.Child(layout.Root(layout.TypeEditText).ID(tr.field).Hint(hint))
			}
			root.Child(layout.Root(layout.TypeButton).
				ID(refNavButton(a.low, tr.to.low)).Text(tr.To).OnClick(tr.handler))
		case TransAction:
			root.Child(layout.Root(layout.TypeButton).
				ID(refActionButton(a.low, tr.to.low)).Text(tr.To).OnClick(tr.handler))
		}
	}

	for i := range a.wires {
		w := &a.wires[i]
		if w.Kind == WireTxnButton {
			// Tab buttons get their listeners registered in code.
			root.Child(layout.Root(layout.TypeTabItem).ID(w.tab).Text(w.Fragment))
		}
		if w.Kind == WireStatic {
			root.Child(layout.Root(layout.TypeFragment).
				ID(refStaticFrag(a.low, w.frag.low)).Class(w.frag.class))
		}
	}
	if container {
		root.Child(layout.Root(layout.TypeFrameLayout).ID(a.container))
	}
	return root.BuildLayout(layoutName(a.layout))
}

func (g *generator) fragmentLayout(f *fragInfo) *layout.Layout {
	root := layout.RootN(layout.TypeLinearLayout, 1+len(f.switches)).ID(refFragRoot(f.low))
	root.Child(layout.Root(layout.TypeTextView).ID(refFragLabel(f.low)).Text(f.spec.Name))
	for _, sw := range f.switches {
		root.Child(layout.Root(layout.TypeButton).
			ID(refSwitchButton(f.low, sw.to.low)).Text(sw.to.spec.Name).OnClick(sw.handler))
	}
	return root.BuildLayout(layoutName(f.layout))
}

// ins is a tiny instruction constructor for generated code.
func ins(op smali.Op, args ...string) smali.Instr {
	return smali.Instr{Op: op, Args: args}
}

func (g *generator) fmOps(a *ActivitySpec) (get smali.Op) {
	if a.SupportFM {
		return smali.OpGetSupportFragmentManager
	}
	return smali.OpGetFragmentManager
}

func (g *generator) activityClass(a *actInfo) *smali.Class {
	super := smali.ClassActivity
	if a.spec.SupportFM {
		super = smali.ClassFragmentActivity
	}
	c := &smali.Class{Name: a.class, Super: super, Access: publicAccess}

	// Size onCreate's body and the method list before filling them.
	nOnCreate, nMethods := 1+len(a.spec.Sensitive), 1+len(a.out)
	if a.spec.RequiresExtra != "" {
		nOnCreate++
	}
	if a.spec.PopupOnCreate {
		nOnCreate++
	}
	if a.drawer {
		nMethods++
	}
	for _, w := range a.wires {
		switch w.Kind {
		case WireTxnOnCreate:
			nOnCreate += 4
		case WireTxnButton:
			nOnCreate++
			nMethods++
		case WireInflate, WireReferenceOnly:
			nOnCreate++
		case WireTxnDrawer, WireTxnSlideDrawer:
			nMethods++
		}
	}

	onCreate := make([]smali.Instr, 0, nOnCreate)
	if a.spec.RequiresExtra != "" {
		onCreate = append(onCreate, ins(smali.OpRequireExtra, a.spec.RequiresExtra))
	}
	onCreate = append(onCreate, ins(smali.OpSetContentView, a.layout))
	for _, w := range a.wires {
		if w.Kind == WireTxnButton {
			onCreate = append(onCreate, ins(smali.OpSetClickListener, w.tab, w.handler))
		}
	}
	for _, api := range a.spec.Sensitive {
		onCreate = append(onCreate, ins(smali.OpInvokeSensitive, api))
	}
	for _, w := range a.wires {
		switch w.Kind {
		case WireTxnOnCreate:
			onCreate = append(onCreate,
				ins(g.fmOps(a.spec)),
				ins(smali.OpBeginTransaction),
				ins(smali.OpTxnAdd, a.container, w.frag.class),
				ins(smali.OpTxnCommit),
			)
		case WireInflate:
			onCreate = append(onCreate, ins(smali.OpInflateView, a.container, w.frag.class))
		case WireReferenceOnly:
			onCreate = append(onCreate, ins(smali.OpNewInstance, w.frag.class))
		}
	}
	if a.spec.PopupOnCreate {
		onCreate = append(onCreate, ins(smali.OpShowPopup, "app bar menu"))
	}
	c.Methods = make([]*smali.Method, 0, nMethods)
	c.Methods = append(c.Methods, &smali.Method{
		Name: "onCreate", Access: publicAccess, Body: onCreate,
	})

	if a.drawer {
		c.Methods = append(c.Methods, &smali.Method{
			Name: handlerToggleDrawer, Access: publicAccess,
			Body: []smali.Instr{ins(smali.OpToggleVisible, refDrawer(a.low))},
		})
	}

	for i := range a.out {
		tr := &a.out[i]
		n := 2
		if tr.Gate != nil {
			n++
		}
		if tr.to.spec.RequiresExtra != "" {
			n++
		}
		body := make([]smali.Instr, 0, n)
		if tr.Gate != nil {
			body = append(body, ins(smali.OpRequireInput, tr.field, tr.gateValue()))
		}
		if tr.Kind == TransAction {
			body = append(body, ins(smali.OpNewIntentAction, tr.Action))
		} else {
			body = append(body, ins(smali.OpNewIntent, a.class, tr.to.class))
		}
		if tr.to.spec.RequiresExtra != "" {
			body = append(body, ins(smali.OpPutExtra, tr.to.spec.RequiresExtra, "ctx"))
		}
		body = append(body, ins(smali.OpStartActivity))
		c.Methods = append(c.Methods, &smali.Method{
			Name: tr.handler, Access: publicAccess, Body: body,
		})
	}

	for _, w := range a.wires {
		switch w.Kind {
		case WireTxnButton, WireTxnDrawer, WireTxnSlideDrawer:
			c.Methods = append(c.Methods, &smali.Method{
				Name: w.handler, Access: publicAccess,
				Body: []smali.Instr{
					ins(g.fmOps(a.spec)),
					ins(smali.OpBeginTransaction),
					ins(smali.OpTxnReplace, a.container, w.frag.class),
					ins(smali.OpTxnCommit),
				},
			})
		}
	}
	return c
}

func (g *generator) fragmentClass(f *fragInfo) *smali.Class {
	c := &smali.Class{
		Name:         f.class,
		Super:        smali.ClassFragment,
		Access:       publicAccess,
		RequiresArgs: f.spec.RequiresArgs,
	}
	body := make([]smali.Instr, 0, 1+len(f.spec.Sensitive))
	body = append(body, ins(smali.OpSetContentView, f.layout))
	for _, api := range f.spec.Sensitive {
		body = append(body, ins(smali.OpInvokeSensitive, api))
	}
	c.Methods = make([]*smali.Method, 0, 1+len(f.switches))
	c.Methods = append(c.Methods, &smali.Method{
		Name: "onCreateView", Access: publicAccess, Body: body,
	})
	for _, sw := range f.switches {
		c.Methods = append(c.Methods, &smali.Method{
			Name: sw.handler, Access: publicAccess,
			Body: []smali.Instr{
				ins(smali.OpGetFragmentManager),
				ins(smali.OpBeginTransaction),
				ins(smali.OpTxnReplace, f.host.container, sw.to.class),
				ins(smali.OpTxnCommit),
			},
		})
	}
	return c
}
