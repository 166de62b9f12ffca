// Package lint is a diagnostics engine over FragDroid's static facts: the
// parsed application bundle, the extraction artifacts (Algorithms 1–3) and
// the whole-program call graph. Each analyzer checks one class of defect the
// dynamic phase would otherwise discover the hard way — or never discover at
// all — and emits positioned, machine-readable diagnostics.
//
// The analyzers:
//
//	FL001  effective component statically unreachable
//	FL002  begin-transaction never committed
//	FL003  transaction operation outside a transaction
//	FL004  click handler method does not exist (guaranteed NoSuchMethodException)
//	FL005  set-click-listener on a widget absent from the owner's layouts
//	FL006  explicit intent target not declared in the manifest
//	FL007  transaction container id missing from the host's content view
//	FL008  require-extra key no caller ever put-extra's (guaranteed force close)
//	FL009  statically unreachable invoke-sensitive (dead monitoring site)
//	FL010  statically reachable sensitive API without its manifest permission
//	FL011  intent action that resolves to no declared activity
//	FL012  send-broadcast no declared receiver subscribes to
//	FL013  sensitive API no launcher-rooted UI path can actuate
package lint

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/layout"
	"fragdroid/internal/paths"
	"fragdroid/internal/sensitive"
	"fragdroid/internal/smali"
	"fragdroid/internal/statics"
)

// Severity grades a diagnostic.
type Severity int

// Severities, ordered.
const (
	SeverityInfo Severity = iota + 1
	SeverityWarning
	SeverityError
)

func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityError:
		return "error"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// ParseSeverity parses "info", "warning" or "error".
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "info":
		return SeverityInfo, nil
	case "warning":
		return SeverityWarning, nil
	case "error":
		return SeverityError, nil
	}
	return 0, fmt.Errorf("lint: unknown severity %q (want info, warning or error)", s)
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	v, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Diagnostic is one positioned finding.
type Diagnostic struct {
	// App is the application package.
	App string `json:"app"`
	// Class and Method locate the finding in code; component-level findings
	// leave Method empty.
	Class  string `json:"class,omitempty"`
	Method string `json:"method,omitempty"`
	// Line is the smali source line (0 for structural findings).
	Line int `json:"line,omitempty"`
	// Code is the analyzer code (FL001..FL013).
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	Msg      string   `json:"msg"`
}

func (d Diagnostic) String() string {
	pos := d.Class
	if d.Method != "" {
		pos += "." + d.Method
	}
	if d.Line > 0 {
		pos += fmt.Sprintf(":%d", d.Line)
	}
	if pos == "" {
		pos = d.App
	}
	return fmt.Sprintf("%s: %s %s: %s", pos, d.Severity, d.Code, d.Msg)
}

// MaxSeverity returns the highest severity among the diagnostics (0 if none).
func MaxSeverity(ds []Diagnostic) Severity {
	var max Severity
	for _, d := range ds {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max
}

// Filter returns the diagnostics at or above the minimum severity.
func Filter(ds []Diagnostic, min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range ds {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// Run executes every analyzer over one extraction and returns the findings
// sorted by class, line and code.
func Run(ex *statics.Extraction) []Diagnostic {
	c := newCtx(ex)
	c.unreachableComponents()
	c.transactions()
	c.clickHandlers()
	c.intentTargets()
	c.containers()
	c.requireExtras()
	c.unreachableSensitive()
	c.permissions()
	c.actionsAndBroadcasts()
	c.launcherBlockedSensitive()

	sort.SliceStable(c.diags, func(i, j int) bool {
		a, b := c.diags[i], c.diags[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
	return c.diags
}

// ctx carries the shared facts the analyzers consult.
type ctx struct {
	ex    *statics.Extraction
	app   *apk.App
	prog  *smali.Program
	pkg   string
	diags []Diagnostic

	// layoutsOf maps every class (not only effective components) to the
	// layouts it inflates, including through inner classes.
	layoutsOf map[string][]string
	// fragSet marks fragment subclasses; actSet marks declared activities.
	fragSet map[string]bool
	actSet  map[string]bool
}

func newCtx(ex *statics.Extraction) *ctx {
	c := &ctx{
		ex:        ex,
		app:       ex.App,
		prog:      ex.App.Program,
		pkg:       ex.App.Manifest.Package,
		layoutsOf: make(map[string][]string),
		fragSet:   make(map[string]bool),
		actSet:    make(map[string]bool),
	}
	for _, f := range c.prog.FragmentClasses() {
		c.fragSet[f] = true
	}
	for _, a := range c.app.Manifest.ActivityNames() {
		c.actSet[a] = true
	}
	for _, cn := range c.prog.Names() {
		owner := outerComponent(cn)
		cl := c.prog.Class(cn)
		for _, m := range cl.Methods {
			for _, ins := range m.Body {
				if ins.Op != smali.OpSetContentView {
					continue
				}
				if name, ok := layoutRefName(ins.Args[0]); ok {
					c.layoutsOf[owner] = appendUnique(c.layoutsOf[owner], name)
				}
			}
		}
	}
	return c
}

func (c *ctx) report(class, method string, line int, code string, sev Severity, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		App: c.pkg, Class: class, Method: method, Line: line,
		Code: code, Severity: sev, Msg: fmt.Sprintf(format, args...),
	})
}

// eachMethod visits every method of every class in program order.
func (c *ctx) eachMethod(fn func(class string, m *smali.Method)) {
	for _, cn := range c.prog.Names() {
		for _, m := range c.prog.Class(cn).Methods {
			fn(cn, m)
		}
	}
}

// outerComponent maps an inner class to its outer class, everything else to
// itself — the component whose context the code executes in.
func outerComponent(class string) string {
	if i := strings.IndexByte(class, '$'); i > 0 {
		return class[:i]
	}
	return class
}

// resolves reports whether class (or its application superclass chain)
// defines method — the runtime's virtual dispatch.
func (c *ctx) resolves(class, method string) bool {
	for _, cn := range append([]string{class}, c.prog.SuperChain(class)...) {
		if cl := c.prog.Class(cn); cl != nil && cl.Method(method) != nil {
			return true
		}
	}
	return false
}

// ownLayouts returns the layouts a class inflates; hostsLayouts adds, for a
// fragment, the layouts of its host activities (its widgets are composed
// into the host's window at runtime) and, for an activity, the layouts of
// its dependent fragments.
func (c *ctx) reachableLayouts(class string) []string {
	out := append([]string(nil), c.layoutsOf[class]...)
	if c.fragSet[class] {
		for _, host := range c.ex.Deps.HostsOf[class] {
			out = append(out, c.layoutsOf[host]...)
		}
	}
	if c.actSet[class] {
		for _, f := range c.ex.Deps.FragmentsOf[class] {
			out = append(out, c.layoutsOf[f]...)
		}
	}
	return out
}

// refsIn collects the normalized widget refs declared in the layouts.
func (c *ctx) refsIn(layouts []string) map[string]bool {
	refs := make(map[string]bool)
	for _, ln := range layouts {
		l := c.app.Layouts[ln]
		if l == nil {
			continue
		}
		l.Walk(func(w *layout.Widget) bool {
			if w.IDRef != "" {
				refs[apk.NormalizeRef(w.IDRef)] = true
			}
			return true
		})
	}
	return refs
}

// containersIn collects the normalized fragment-container refs of the layouts.
func (c *ctx) containersIn(layouts []string) map[string]bool {
	refs := make(map[string]bool)
	for _, ln := range layouts {
		l := c.app.Layouts[ln]
		if l == nil {
			continue
		}
		for _, ref := range l.Containers() {
			refs[apk.NormalizeRef(ref)] = true
		}
	}
	return refs
}

// FL001: an effective component the static reachability fixpoints prove
// unvisitable. An effective activity outside the launcher reach is only ever
// seen through forced starts; an effective fragment outside the forced-start
// ceiling cannot be confirmed by the explorer at all.
func (c *ctx) unreachableComponents() {
	for _, a := range c.ex.EffectiveActivities {
		if !c.ex.LauncherReach().Activities[a] {
			c.report(a, "", 0, "FL001", SeverityWarning,
				"effective activity %s is not reachable from the launcher; only forced empty-Intent starts can visit it", a)
		}
	}
	for _, f := range c.ex.EffectiveFragments {
		if !c.ex.StaticReach().Fragments[f] {
			c.report(f, "", 0, "FL001", SeverityWarning,
				"effective fragment %s is never transaction-committed, inflated or statically declared; the explorer cannot confirm it", f)
		}
	}
}

// FL002 + FL003: transaction bracketing. A begin-transaction that never
// commits leaks the transaction and the fragment never shows; a transaction
// operation without an open transaction is a programming error.
func (c *ctx) transactions() {
	c.eachMethod(func(class string, m *smali.Method) {
		open := false
		openLine := 0
		for _, ins := range m.Body {
			switch ins.Op {
			case smali.OpBeginTransaction:
				if open {
					c.report(class, m.Name, openLine, "FL002", SeverityError,
						"begin-transaction is never committed (a second begin-transaction follows at line %d)", ins.Line)
				}
				open, openLine = true, ins.Line
			case smali.OpTxnAdd, smali.OpTxnReplace, smali.OpTxnRemove:
				if !open {
					c.report(class, m.Name, ins.Line, "FL003", SeverityError,
						"%s outside a transaction (no begin-transaction in scope)", ins.Op)
				}
			case smali.OpTxnCommit:
				if !open {
					c.report(class, m.Name, ins.Line, "FL003", SeverityError,
						"txn-commit outside a transaction (no begin-transaction in scope)")
				}
				open = false
			}
		}
		if open {
			c.report(class, m.Name, openLine, "FL002", SeverityError,
				"begin-transaction is never committed; the fragment never shows")
		}
	})
}

// FL004 + FL005: click-handler wiring. A registered or XML-bound handler the
// owning component cannot resolve force-closes with NoSuchMethodException on
// the first click; a listener on a widget absent from every layout the owner
// can show never fires.
func (c *ctx) clickHandlers() {
	c.eachMethod(func(class string, m *smali.Method) {
		owner := outerComponent(class)
		for _, ins := range m.Body {
			if ins.Op != smali.OpSetClickListener {
				continue
			}
			ref, handler := apk.NormalizeRef(ins.Args[0]), ins.Args[1]
			if !c.resolves(owner, handler) {
				c.report(class, m.Name, ins.Line, "FL004", SeverityError,
					"set-click-listener names %s.%s which does not exist; a click force-closes with NoSuchMethodException", owner, handler)
			}
			if !c.refsIn(c.reachableLayouts(owner))[ref] {
				c.report(class, m.Name, ins.Line, "FL005", SeverityWarning,
					"set-click-listener on %s, which appears in no layout %s inflates; the listener never fires", ref, owner)
			}
		}
	})
	// XML android:onClick binds to the class that inflates the layout.
	for _, cn := range c.prog.Names() {
		if !c.actSet[cn] && !c.fragSet[cn] {
			continue
		}
		for _, ln := range c.layoutsOf[cn] {
			l := c.app.Layouts[ln]
			if l == nil {
				continue
			}
			l.Walk(func(w *layout.Widget) bool {
				if w.OnClick != "" && !c.resolves(cn, w.OnClick) {
					c.report(cn, "", 0, "FL004", SeverityError,
						"layout %s binds android:onClick=%q on %s, but %s has no such method; a click force-closes", ln, w.OnClick, w.IDRef, cn)
				}
				return true
			})
		}
	}
}

// FL006: explicit intent targets must be declared in the manifest, or the
// start throws ActivityNotFoundException at runtime.
func (c *ctx) intentTargets() {
	c.eachMethod(func(class string, m *smali.Method) {
		for _, ins := range m.Body {
			if ins.Op != smali.OpNewIntent && ins.Op != smali.OpSetClass {
				continue
			}
			dst := ins.Args[1]
			if !c.app.Manifest.HasActivity(dst) {
				c.report(class, m.Name, ins.Line, "FL006", SeverityError,
					"intent target %s is not declared in the manifest; the start throws ActivityNotFoundException", dst)
			}
		}
	})
}

// FL007: the container a transaction or inflation targets must exist in a
// content view the executing component can actually show — its own layouts,
// or (for fragment code) its hosts' layouts.
func (c *ctx) containers() {
	c.eachMethod(func(class string, m *smali.Method) {
		owner := outerComponent(class)
		var allowed map[string]bool
		for _, ins := range m.Body {
			switch ins.Op {
			case smali.OpTxnAdd, smali.OpTxnReplace, smali.OpInflateView:
			default:
				continue
			}
			if allowed == nil {
				allowed = c.containersIn(c.reachableLayouts(owner))
			}
			ref := apk.NormalizeRef(ins.Args[0])
			if !allowed[ref] {
				c.report(class, m.Name, ins.Line, "FL007", SeverityError,
					"%s targets container %s, which is in no content view of %s", ins.Op, ref, owner)
			}
		}
	})
}

// FL008: an activity guarded by require-extra that no caller ever
// put-extra's before starting is a statically guaranteed force close.
func (c *ctx) requireExtras() {
	type site struct {
		class, method, key string
		line               int
	}
	var required []site
	for a := range c.actSet {
		for _, cn := range c.prog.ClassAndInner(a) {
			cl := c.prog.Class(cn)
			if cl == nil {
				continue
			}
			for _, m := range cl.Methods {
				for _, ins := range m.Body {
					if ins.Op == smali.OpRequireExtra {
						required = append(required, site{cn, m.Name, ins.Args[0], ins.Line})
					}
				}
			}
		}
	}
	if len(required) == 0 {
		return
	}
	// supplied[activity][key]: some method both put-extra's the key and
	// starts the activity.
	supplied := make(map[string]map[string]bool)
	c.eachMethod(func(class string, m *smali.Method) {
		var keys, targets []string
		for _, ins := range m.Body {
			switch ins.Op {
			case smali.OpPutExtra:
				keys = append(keys, ins.Args[0])
			case smali.OpNewIntent, smali.OpSetClass:
				targets = append(targets, ins.Args[1])
			case smali.OpNewIntentAction, smali.OpSetAction:
				if target, ok := c.app.Manifest.ActivityForAction(ins.Args[0]); ok {
					targets = append(targets, target)
				}
			}
		}
		for _, target := range targets {
			for _, key := range keys {
				if supplied[target] == nil {
					supplied[target] = make(map[string]bool)
				}
				supplied[target][key] = true
			}
		}
	})
	sort.Slice(required, func(i, j int) bool {
		if required[i].class != required[j].class {
			return required[i].class < required[j].class
		}
		return required[i].line < required[j].line
	})
	for _, r := range required {
		owner := outerComponent(r.class)
		if !supplied[owner][r.key] {
			c.report(r.class, r.method, r.line, "FL008", SeverityError,
				"require-extra %q: no caller ever put-extra's it before starting %s; every launch force-closes", r.key, owner)
		}
	}
}

// FL009: a sensitive invocation in statically unreachable code can never be
// confirmed dynamically — dead code, an unvisitable component, or a receiver
// whose action nothing broadcasts.
func (c *ctx) unreachableSensitive() {
	reach := c.ex.StaticReach()
	c.eachMethod(func(class string, m *smali.Method) {
		for _, ins := range m.Body {
			if ins.Op != smali.OpInvokeSensitive && ins.Op != smali.OpLoadLibrary {
				continue
			}
			if reach.Methods[class+"."+m.Name] {
				continue
			}
			api := "shell/loadLibrary"
			if ins.Op == smali.OpInvokeSensitive {
				api = ins.Args[0]
			}
			c.report(class, m.Name, ins.Line, "FL009", SeverityWarning,
				"sensitive call %s is statically unreachable; the dynamic phase can never confirm it", api)
		}
	})
}

// FL010: a statically reachable sensitive API whose guarding permission the
// manifest does not declare fails with SecurityException at runtime.
func (c *ctx) permissions() {
	declared := make(map[string]bool)
	for _, p := range c.app.Manifest.Permissions {
		declared[p.Name] = true
	}
	reach := c.ex.StaticReach()
	for _, api := range reach.APIList() {
		var missing []string
		for _, p := range sensitive.PermissionsFor(api) {
			if !declared[p] {
				missing = append(missing, p)
			}
		}
		if len(missing) == 0 {
			continue
		}
		owners := reach.APIs[api]
		class := ""
		if len(owners) > 0 {
			class = owners[0]
		}
		c.report(class, "", 0, "FL010", SeverityError,
			"reachable sensitive API %s (invoked by %s) requires undeclared permission %s",
			api, strings.Join(owners, ", "), strings.Join(missing, ", "))
	}
}

// FL011 + FL012: implicit intents and broadcasts that resolve to nothing
// inside the app. Actions in the android.* namespace are assumed to target
// the system and are not reported.
func (c *ctx) actionsAndBroadcasts() {
	c.eachMethod(func(class string, m *smali.Method) {
		for _, ins := range m.Body {
			switch ins.Op {
			case smali.OpNewIntentAction, smali.OpSetAction:
				action := ins.Args[0]
				if strings.HasPrefix(action, "android.") {
					continue
				}
				if _, ok := c.app.Manifest.ActivityForAction(action); !ok {
					c.report(class, m.Name, ins.Line, "FL011", SeverityWarning,
						"intent action %q resolves to no declared activity", action)
				}
			case smali.OpSendBroadcast:
				action := ins.Args[0]
				if strings.HasPrefix(action, "android.") {
					continue
				}
				if len(c.app.Manifest.ReceiversFor(action)) == 0 {
					c.report(class, m.Name, ins.Line, "FL012", SeverityWarning,
						"no declared receiver subscribes to broadcast %q; it is dropped", action)
				}
			}
		}
	})
}

func layoutRefName(ref string) (string, bool) {
	s := strings.TrimPrefix(strings.TrimPrefix(ref, "@+"), "@")
	if rest, ok := strings.CutPrefix(s, "layout/"); ok && rest != "" {
		return rest, true
	}
	return "", false
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// FL013: a sensitive site the static reach proves live, but that no
// launcher-rooted UI path can actuate: either the launcher fixpoint never
// reaches its component, or every enumerated launcher path contains an edge
// the lowering cannot drive (an unbound click dispatch, a gated reflective
// switch, receiver-only code). Either way, only forced starts can confirm the
// site — the message names the blocking edge so the gap is actionable.
func (c *ctx) launcherBlockedSensitive() {
	p := paths.New(c.ex, paths.Config{LauncherOnly: true, DefaultInput: "x"})
	reach := c.ex.StaticReach()
	for _, api := range reach.APIList() {
		for _, owner := range reach.APIs[api] {
			sp := p.PlanSite(api, owner)
			if sp.Liftable() {
				continue
			}
			class, method, line := launcherSiteOf(c.ex, api, owner)
			reason := "no launcher path reaches it within the search bounds"
			if b, ok := sp.Blocking(); ok && b.Cause != paths.CauseSearchBound {
				reason = fmt.Sprintf("every launcher path is blocked (%s)", b)
			}
			c.report(class, method, line, "FL013", SeverityWarning,
				"sensitive call %s in %s cannot be actuated from the launcher UI: %s; only forced starts can confirm it",
				api, owner, reason)
		}
	}
}

// launcherSiteOf locates the first call-graph site of the (api, owner) relation
// for diagnostic positioning; the owner component itself when no method site
// matches (receiver relations attribute to the component).
func launcherSiteOf(ex *statics.Extraction, api, owner string) (class, method string, line int) {
	for _, s := range ex.Graph().Sites() {
		if s.API == api && outerComponent(s.Node.Class) == owner {
			return s.Node.Class, s.Node.Method, s.Line
		}
	}
	return owner, "", 0
}
