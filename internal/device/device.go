// Package device implements the Android runtime simulator FragDroid's
// dynamic phase drives. It stands in for the paper's customized Android
// device plus ADB plus the Robotium instrumentation runtime: it installs one
// app, interprets the app's smali code, maintains the activity back stack,
// fragment managers, view hierarchies, dialogs and drawers, delivers click
// and text events, force-closes on app crashes, and reports UI dumps the way
// an instrumentation harness would observe them.
//
// The simulator executes the same smali program the static phase analyses,
// so static model and dynamic truth can genuinely diverge — the divergences
// (fragments loaded without a FragmentManager, activities demanding intent
// extras, hidden slide-only drawers) are exactly the phenomena the paper's
// evaluation discusses.
package device

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"

	"fragdroid/internal/apk"
	"fragdroid/internal/ir"
	"fragdroid/internal/layout"
	"fragdroid/internal/smali"
)

// Common device errors.
var (
	// ErrCrashed is returned by interactions while the app is force-closed.
	ErrCrashed = errors.New("device: application has crashed (FC)")
	// ErrNotRunning is returned when no activity is on the stack.
	ErrNotRunning = errors.New("device: application is not running")
	// ErrNoSuchWidget is returned for interactions with absent widgets.
	ErrNoSuchWidget = errors.New("device: no such widget on screen")
	// ErrHidden is returned for interactions with invisible widgets.
	ErrHidden = errors.New("device: widget is not visible")
	// ErrNotClickable is returned when clicking a widget with no handler.
	ErrNotClickable = errors.New("device: widget is not clickable")
	// ErrNotEditable is returned when entering text into a non-input widget.
	ErrNotEditable = errors.New("device: widget is not editable")
)

// ReflectionError describes a failed reflective fragment switch (§VI-A Case
// 2 and the com.inditex.zara / com.mobilemotion.dubsmash failure modes).
type ReflectionError struct {
	Fragment string
	Reason   string
}

func (e *ReflectionError) Error() string {
	return fmt.Sprintf("device: reflection on %s failed: %s", e.Fragment, e.Reason)
}

// SensitiveEvent is emitted whenever the interpreted code invokes a
// sensitive API. Class is the declaring class of the executing method;
// InFragment tells whether that class is a Fragment subclass; Activity is
// the activity on whose screen the call happened.
type SensitiveEvent struct {
	API        string
	Class      string
	InFragment bool
	Activity   string
}

// Options configure a device.
type Options struct {
	// Monitor receives sensitive-API events; nil disables monitoring.
	Monitor func(SensitiveEvent)
	// Hook receives every device-log line as it is written — the trace hook
	// an exploration session uses to forward device activity to its
	// structured event stream, and the only way to read the log: the device
	// keeps no copy. Nil disables the log, and the device builds no line.
	Hook func(line string)
	// MaxStartDepth bounds nested activity starts within one event to break
	// pathological onCreate→startActivity cycles (treated as an ANR crash).
	// Zero means the default of 16.
	MaxStartDepth int
	// MaxSteps, when positive, crashes the app once the device has executed
	// that many instructions. Depth-bounded start chains can still fan out
	// exponentially (k starts per onCreate, k^depth executions); the
	// differential fuzzer uses this budget to keep such inputs finite. Zero
	// (the default everywhere else) means unlimited.
	MaxSteps int
	// Interp selects the interpreter backend: "ir" runs precompiled method
	// IR (the default), "classic" walks parsed smali directly. Empty uses
	// the package default (settable via SetDefaultInterp, e.g. from the
	// -interp CLI flag). Both backends are observably identical.
	Interp string
}

// classicDefault flips the package-wide default backend to the classic
// interpreter. Atomic so tests and CLI flag handling stay race-clean.
var classicDefault atomic.Bool

// SetDefaultInterp selects the backend used by devices whose Options.Interp
// is empty: "ir" (also ""), or "classic".
func SetDefaultInterp(mode string) error {
	switch mode {
	case "ir", "":
		classicDefault.Store(false)
	case "classic":
		classicDefault.Store(true)
	default:
		return fmt.Errorf("device: unknown interpreter %q (want ir or classic)", mode)
	}
	return nil
}

// DefaultInterp reports the package-wide default backend.
func DefaultInterp() string {
	if classicDefault.Load() {
		return "classic"
	}
	return "ir"
}

// Device is one emulated phone with a single installed app.
type Device struct {
	app  *apk.App
	opts Options
	// ir is the compiled program of the IR fast path; nil selects the
	// classic interpreter. Shared (with its inline caches) by every device
	// running the same app.
	ir *ir.Program

	// stack is the task's back stack. Its backing array beyond len still
	// holds the instances a BACK, a finish or a crash dropped, until a task
	// reset moves them to free.
	stack    []*activityInstance
	crashed  bool
	crashMsg string

	// steps is the logical work counter: interpreted instructions plus
	// delivered UI events, whether executed or credited by a snapshot
	// restore. restored is the portion of steps that came from restores.
	steps    int
	restored int

	// free and freeFrags hold the activity and fragment instances of killed
	// tasks, emptied, for the next starts and commits to reuse: a session
	// replays every test case on one device, so a replay allocates only what
	// the previous runs never needed.
	free      []*activityInstance
	freeFrags []*fragmentInstance
}

// activityInstance is one live activity on the back stack.
//
// The override maps (listeners, texts, visible) are allocated lazily on
// first write — most activity starts never touch most of them, and the
// kill-and-restart discipline makes activity starts the interpreter's hottest
// allocation site. A recycled instance keeps its maps, emptied. Readers must
// tolerate nil maps (indexing a nil map is fine in Go); writers go through
// the set* helpers.
type activityInstance struct {
	class  string
	intent intent
	// content is the inflated layout. Layout trees are immutable at runtime
	// (all mutable widget state lives in the override maps below), so content
	// aliases the installed app's tree — no per-start deep copy.
	content *layout.Layout
	// frags lists the live fragments in commit order, at most one per
	// container. An activity holds only a few, so lookups scan it.
	frags []*fragmentInstance
	// listeners maps widget ref -> handler registered via code.
	listeners map[string]handlerRef
	// texts and visible override widget state.
	texts   map[string]string
	visible map[string]bool
	// dialog is the modal dialog/popup currently showing, if any.
	dialog *dialog
}

func (t *activityInstance) setText(ref, val string) {
	if t.texts == nil {
		t.texts = make(map[string]string)
	}
	t.texts[ref] = val
}

func (t *activityInstance) setVisible(ref string, v bool) {
	if t.visible == nil {
		t.visible = make(map[string]bool)
	}
	t.visible[ref] = v
}

func (t *activityInstance) setListener(ref string, h handlerRef) {
	if t.listeners == nil {
		t.listeners = make(map[string]handlerRef)
	}
	t.listeners[ref] = h
}

// fragmentInstance is a live fragment inside an activity.
type fragmentInstance struct {
	class     string
	container string
	content   *layout.Layout
	// listeners is allocated lazily on first registration.
	listeners map[string]handlerRef
	// viaFM tells whether the fragment was committed through a
	// FragmentTransaction (true) or loaded directly (false). Instrumentation
	// can only confirm FM-backed fragments.
	viaFM bool
}

// fragmentOf returns the first live fragment of the given class, or nil.
func (t *activityInstance) fragmentOf(class string) *fragmentInstance {
	for _, f := range t.frags {
		if f.class == class {
			return f
		}
	}
	return nil
}

func (f *fragmentInstance) setListener(ref string, h handlerRef) {
	if f.listeners == nil {
		f.listeners = make(map[string]handlerRef)
	}
	f.listeners[ref] = h
}

type handlerRef struct {
	class  string
	method string
	// site is the inline-cache slot for this handler's dispatch; 0 means
	// "no cache" (classic-mode registrations).
	// Sites are allocated from 1 so the zero value is always safe.
	site int32
}

type dialog struct {
	text  string
	popup bool
}

type intent struct {
	explicit string
	action   string
	extras   map[string]string
}

func (it intent) has(key string) bool {
	_, ok := it.extras[key]
	return ok
}

// New returns a device with the app installed but not launched.
func New(app *apk.App, opts Options) *Device {
	if opts.MaxStartDepth == 0 {
		opts.MaxStartDepth = 16
	}
	mode := opts.Interp
	if mode == "" {
		mode = DefaultInterp()
	}
	d := &Device{app: app, opts: opts}
	if mode != "classic" {
		d.ir = ir.For(app)
	}
	return d
}

// App returns the installed app.
func (d *Device) App() *apk.App { return d.app }

// Steps reports the logical step count since creation: interpreted
// instructions plus delivered UI events, including steps credited by a
// snapshot Restore. Benchmarks and session budgets use it as the simulator's
// work measure; it is identical whether a route prefix was executed or
// restored.
func (d *Device) Steps() int { return d.steps }

// RestoredSteps reports the portion of Steps that was credited by snapshot
// restores instead of executed — the interpreter work snapshots saved.
func (d *Device) RestoredSteps() int { return d.restored }

// ExecutedSteps reports the steps the interpreter actually performed.
func (d *Device) ExecutedSteps() int { return d.steps - d.restored }

// log forwards a pre-built line to the Hook, if any; hot paths concatenate
// their lines directly instead of going through fmt. A call site that builds
// its line checks for the Hook first, so a device without one builds none.
func (d *Device) log(line string) {
	if d.opts.Hook != nil {
		d.opts.Hook(line)
	}
}

func (d *Device) logf(format string, args ...any) {
	d.log(fmt.Sprintf(format, args...))
}

// Crashed reports whether the app is force-closed; CrashReason says why.
func (d *Device) Crashed() bool       { return d.crashed }
func (d *Device) CrashReason() string { return d.crashMsg }

// Running reports whether at least one activity is on the stack.
func (d *Device) Running() bool { return !d.crashed && len(d.stack) > 0 }

func (d *Device) top() *activityInstance {
	if len(d.stack) == 0 {
		return nil
	}
	return d.stack[len(d.stack)-1]
}

// CurrentActivity returns the class of the foreground activity.
func (d *Device) CurrentActivity() (string, error) {
	if d.crashed {
		return "", ErrCrashed
	}
	t := d.top()
	if t == nil {
		return "", ErrNotRunning
	}
	return t.class, nil
}

// LaunchMain starts the app at its MAIN/LAUNCHER activity with a fresh task,
// the `am start -a MAIN -c LAUNCHER` of §VI-A.
func (d *Device) LaunchMain() error {
	entry, err := d.app.Manifest.EntryActivity()
	if err != nil {
		return err
	}
	d.reset()
	if d.opts.Hook != nil {
		d.log("am start -n " + entry + " -a android.intent.action.MAIN -c android.intent.category.LAUNCHER")
	}
	return d.startActivity(intent{explicit: entry}, 0)
}

// ForceStart starts an arbitrary declared activity with an empty intent on a
// fresh task. It models `am start -n <COMPONENT>` against the manifest that
// the static phase patched with MAIN actions for every activity, so any
// declared activity is startable — but activities that require intent extras
// force-close (§VII-B1: forced starting "does not take the context and
// Intent into account").
func (d *Device) ForceStart(activity string) error {
	if !d.app.Manifest.HasActivity(activity) {
		return fmt.Errorf("device: am start: activity %s not declared", activity)
	}
	d.reset()
	if d.opts.Hook != nil {
		d.log("am start -n " + activity)
	}
	return d.startActivity(intent{explicit: activity}, 0)
}

// Reset returns the device to its freshly installed state: the app is not
// running, not crashed, and no steps are counted. The options, and so the
// Monitor and the Hook, stay. Nothing of the previous runs' program state
// survives; only the storage of their activity and fragment instances is
// kept for reuse.
func (d *Device) Reset() {
	d.reset()
	d.steps, d.restored = 0, 0
}

// reset kills the task (process restart): it clears the crash state and
// moves every activity instance of the task to the free list, including
// those a BACK, a finish or a crash dropped. No interpretation runs at a
// reset, so nothing else still refers to them. The top goes in first, so a
// replay that starts the same activities again gets each one's old
// instance, with maps sized for it.
func (d *Device) reset() {
	all := d.stack[:cap(d.stack)]
	for i := len(all) - 1; i >= 0; i-- {
		if all[i] != nil {
			d.recycle(all[i])
			all[i] = nil
		}
	}
	d.stack = d.stack[:0]
	d.crashed = false
	d.crashMsg = ""
}

// recycle empties an activity instance and its fragments onto the free
// lists, keeping their maps' storage.
func (d *Device) recycle(t *activityInstance) {
	for _, f := range t.frags {
		clear(f.listeners)
		*f = fragmentInstance{listeners: f.listeners}
		d.freeFrags = append(d.freeFrags, f)
	}
	clear(t.frags)
	clear(t.listeners)
	clear(t.texts)
	clear(t.visible)
	*t = activityInstance{frags: t.frags[:0], listeners: t.listeners, texts: t.texts, visible: t.visible}
	d.free = append(d.free, t)
}

// reuse pops an emptied instance off a free list, or returns a new one.
func reuse[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// newActivity returns an activity instance for a start.
func (d *Device) newActivity(class string, it intent) *activityInstance {
	t := reuse(&d.free)
	t.class, t.intent = class, it
	return t
}

// attachFragment puts a new fragment instance into container: in place of
// the fragment living there, else after every live fragment.
func (d *Device) attachFragment(t *activityInstance, class, container string, viaFM bool) *fragmentInstance {
	f := reuse(&d.freeFrags)
	f.class, f.container, f.viaFM = class, container, viaFM
	for i, old := range t.frags {
		if old.container == container {
			t.frags[i] = f
			return f
		}
	}
	t.frags = append(t.frags, f)
	return f
}

// Back pops the foreground activity (the BACK key).
func (d *Device) Back() error {
	if d.crashed {
		return ErrCrashed
	}
	if len(d.stack) == 0 {
		return ErrNotRunning
	}
	d.steps++
	top := d.stack[len(d.stack)-1]
	if top.dialog != nil {
		top.dialog = nil
		d.log("back: dismissed dialog")
		return nil
	}
	d.stack = d.stack[:len(d.stack)-1]
	if d.opts.Hook != nil {
		d.log("back: finished " + top.class)
	}
	return nil
}

// crash force-closes the app. The dropped instances stay in the stack's
// backing array: frames still running may refer to them, so only the next
// task reset recycles them.
func (d *Device) crash(reason string) {
	d.crashed = true
	d.crashMsg = reason
	d.stack = d.stack[:0]
	if d.opts.Hook != nil {
		d.log("FATAL EXCEPTION: " + reason)
	}
}

// DismissDialog clicks blank space to remove a dialog or popup menu (§VI-A
// Case 3). It is a no-op error if no dialog is showing.
func (d *Device) DismissDialog() error {
	if d.crashed {
		return ErrCrashed
	}
	t := d.top()
	if t == nil {
		return ErrNotRunning
	}
	if t.dialog == nil {
		return errors.New("device: no dialog to dismiss")
	}
	d.steps++
	if d.opts.Hook != nil {
		d.log("dismiss dialog " + strconv.Quote(t.dialog.text))
	}
	t.dialog = nil
	return nil
}

// HasDialog reports whether a modal dialog or popup is showing.
func (d *Device) HasDialog() bool {
	t := d.top()
	return t != nil && t.dialog != nil
}

// EnterText types a value into an input widget.
func (d *Device) EnterText(ref, value string) error {
	if d.crashed {
		return ErrCrashed
	}
	t := d.top()
	if t == nil {
		return ErrNotRunning
	}
	d.steps++
	w, _, visible, ok := d.findWidget(t, apk.NormalizeRef(ref))
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchWidget, ref)
	}
	if !visible {
		return fmt.Errorf("%w: %s", ErrHidden, ref)
	}
	if !w.Input() {
		return fmt.Errorf("%w: %s", ErrNotEditable, ref)
	}
	t.setText(apk.NormalizeRef(ref), value)
	if d.opts.Hook != nil {
		d.log("enter " + strconv.Quote(value) + " into " + ref)
	}
	return nil
}

// Click delivers a click to a widget. While a dialog is showing, any click
// lands on the dialog and dismisses it (the paper's blank-space click).
func (d *Device) Click(ref string) error {
	if d.crashed {
		return ErrCrashed
	}
	t := d.top()
	if t == nil {
		return ErrNotRunning
	}
	d.steps++
	if t.dialog != nil {
		if d.opts.Hook != nil {
			d.log("click " + ref + " intercepted by dialog; dismissed")
		}
		t.dialog = nil
		return nil
	}
	nref := apk.NormalizeRef(ref)
	w, owner, visible, ok := d.findWidget(t, nref)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchWidget, ref)
	}
	if !visible {
		return fmt.Errorf("%w: %s", ErrHidden, ref)
	}
	// CheckBoxes toggle their state on click (their value is readable by
	// require-input as "checked"/"unchecked") and additionally fire a
	// handler when one is bound.
	if w.Type == layout.TypeCheckBox {
		cur := t.texts[nref]
		if cur == "" {
			cur = CheckBoxUnchecked
		}
		if cur == CheckBoxChecked {
			t.setText(nref, CheckBoxUnchecked)
		} else {
			t.setText(nref, CheckBoxChecked)
		}
		if d.opts.Hook != nil {
			d.log("checkbox " + ref + " -> " + t.texts[nref])
		}
		if h, ok := d.handlerFor(t, w, owner, nref); ok {
			return d.dispatch(t, h)
		}
		return nil
	}
	h, ok := d.handlerFor(t, w, owner, nref)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotClickable, ref)
	}
	if d.opts.Hook != nil {
		d.log("click " + ref + " -> " + h.class + "." + h.method)
	}
	return d.dispatch(t, h)
}

// CheckBox states readable through the widget's text value.
const (
	CheckBoxChecked   = "checked"
	CheckBoxUnchecked = "unchecked"
)

// dispatch invokes a resolved handler on the active backend.
func (d *Device) dispatch(t *activityInstance, h handlerRef) error {
	if d.ir != nil {
		return d.invokeIR(t, h)
	}
	return d.invoke(t, h.class, h.method)
}

// widgetOwner identifies which component's layout a widget came from.
type widgetOwner struct {
	// fragment is nil for activity-layout widgets.
	fragment *fragmentInstance
	// site is the inline-cache slot of the widget's XML onClick handler on
	// the IR path; 0 elsewhere.
	site int32
}

// findWidget locates a widget in the current screen: the activity layout
// first, then each live fragment's layout. The returned visibility accounts
// for Hidden flags, visibility overrides, and hidden ancestors.
func (d *Device) findWidget(t *activityInstance, nref string) (*layout.Widget, widgetOwner, bool, bool) {
	if d.ir != nil {
		return d.findWidgetIR(t, nref)
	}
	if t.content != nil {
		if w, vis, ok := findInTree(t.content, nref, t.visible); ok {
			return w, widgetOwner{}, vis, true
		}
	}
	for _, f := range t.frags {
		if f.content == nil {
			continue
		}
		if w, vis, ok := findInTree(f.content, nref, t.visible); ok {
			// A fragment's widgets are visible only if its container is.
			if cw, cvis, cok := findInTree(t.content, f.container, t.visible); cok {
				_ = cw
				vis = vis && cvis
			}
			return w, widgetOwner{fragment: f}, vis, true
		}
	}
	return nil, widgetOwner{}, false, false
}

// findInTree locates nref in a layout, computing effective visibility along
// the path (a widget is invisible if any ancestor is hidden).
func findInTree(l *layout.Layout, nref string, overrides map[string]bool) (*layout.Widget, bool, bool) {
	var found *layout.Widget
	foundVis := false
	var walk func(w *layout.Widget, vis bool) bool
	walk = func(w *layout.Widget, vis bool) bool {
		wVis := vis && widgetVisible(w, overrides)
		if apk.NormalizeRef(w.IDRef) == nref && w.IDRef != "" {
			found = w
			foundVis = wVis
			return false
		}
		for _, c := range w.Children {
			if !walk(c, wVis) {
				return false
			}
		}
		return true
	}
	if l.Root != nil {
		walk(l.Root, true)
	}
	return found, foundVis, found != nil
}

func widgetVisible(w *layout.Widget, overrides map[string]bool) bool {
	if w.IDRef != "" {
		if v, ok := overrides[apk.NormalizeRef(w.IDRef)]; ok {
			return v
		}
	}
	return !w.Hidden
}

// handlerFor resolves the click handler: XML onClick binds to the owning
// component's class; otherwise a code-registered listener is looked up in
// the fragment's registry, then the activity's.
func (d *Device) handlerFor(t *activityInstance, w *layout.Widget, owner widgetOwner, nref string) (handlerRef, bool) {
	if w.OnClick != "" {
		if owner.fragment != nil {
			return handlerRef{class: owner.fragment.class, method: w.OnClick, site: owner.site}, true
		}
		return handlerRef{class: t.class, method: w.OnClick, site: owner.site}, true
	}
	if owner.fragment != nil {
		if h, ok := owner.fragment.listeners[nref]; ok {
			return h, true
		}
	}
	if h, ok := t.listeners[nref]; ok {
		return h, true
	}
	return handlerRef{}, false
}

// classUsesFM reports whether a class (with inner classes) obtains a
// FragmentManager anywhere in its code — the runtime precondition for the
// reflection mechanism.
func (d *Device) classUsesFM(class string) bool {
	if d.ir != nil {
		if ci := d.ir.ClassID(class); ci >= 0 {
			return d.ir.Classes[ci].UsesFM
		}
		// Classes absent from the program can still have inner classes in
		// it; fall through to the scan, like the classic path.
	}
	for _, cn := range d.app.Program.ClassAndInner(class) {
		c := d.app.Program.Class(cn)
		if c == nil {
			continue
		}
		for _, m := range c.Methods {
			for _, ins := range m.Body {
				if ins.Op == smali.OpGetFragmentManager || ins.Op == smali.OpGetSupportFragmentManager {
					return true
				}
			}
		}
	}
	return false
}

// Reflect performs the Java-reflection fragment switch of §VI-A Case 2: it
// obtains the current activity's FragmentManager reflectively, instantiates
// the fragment class, and commits a replace transaction into container.
func (d *Device) Reflect(fragment, container string) error {
	if d.crashed {
		return ErrCrashed
	}
	t := d.top()
	if t == nil {
		return ErrNotRunning
	}
	d.steps++
	if !d.classUsesFM(t.class) {
		return &ReflectionError{Fragment: fragment, Reason: fmt.Sprintf("activity %s has no FragmentManager", t.class)}
	}
	fc := d.app.Program.Class(fragment)
	if fc == nil || !d.app.Program.IsFragmentClass(fragment) {
		return &ReflectionError{Fragment: fragment, Reason: "not a Fragment class"}
	}
	if fc.RequiresArgs {
		return &ReflectionError{Fragment: fragment, Reason: "newInstance requires missing parameters"}
	}
	nref := apk.NormalizeRef(container)
	cw, _, _, ok := d.findWidget(t, nref)
	if !ok || !cw.Container() {
		return &ReflectionError{Fragment: fragment, Reason: fmt.Sprintf("no container %s in current UI", container)}
	}
	if d.opts.Hook != nil {
		d.log("reflect: commit " + fragment + " into " + container)
	}
	return d.commitFragment(t, nref, fragment, true)
}
