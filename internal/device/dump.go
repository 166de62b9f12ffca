package device

import (
	"fmt"
	"sort"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/layout"
)

// WidgetInfo is one visible-tree entry of a UI dump, the uiautomator-style
// view the driving layer observes.
type WidgetInfo struct {
	// Ref is the normalized widget reference.
	Ref string
	// Type is the widget class.
	Type string
	// Text is the effective display text (overrides applied).
	Text string
	// Visible is the effective visibility.
	Visible bool
	// Clickable reports whether a click would reach a handler.
	Clickable bool
	// Editable reports input widgets.
	Editable bool
	// FromFragment names the live fragment owning the widget, "" for the
	// activity's own layout.
	FromFragment string
}

// UIDump is a point-in-time observation of the foreground UI.
type UIDump struct {
	// Activity is the foreground activity class (as `dumpsys activity` would
	// report).
	Activity string
	// Widgets lists the widget tree in draw order (top-to-bottom,
	// left-to-right — the click order of §VI-A Case 3).
	Widgets []WidgetInfo
	// FMFragments lists fragment classes currently committed through a
	// FragmentManager — what instrumentation can confirm via reflection.
	// Fragments loaded without a FragmentManager are NOT listed (the
	// com.mobilemotion.dubsmash blind spot).
	FMFragments []string
	// HasDialog reports a modal dialog or popup obscuring the UI.
	HasDialog bool
}

// ClickableRefs returns refs that are both visible and clickable, in draw
// order.
func (u UIDump) ClickableRefs() []string {
	return u.refs(func(w WidgetInfo) bool { return w.Visible && w.Clickable })
}

// EditableRefs returns visible input widgets in draw order.
func (u UIDump) EditableRefs() []string {
	return u.refs(func(w WidgetInfo) bool { return w.Visible && w.Editable })
}

// refs collects matching widget refs in draw order: counted first so the
// result is a single exact allocation, nil when nothing matches (these run
// after every observed action, so growslice churn here is pure GC pressure).
func (u UIDump) refs(match func(WidgetInfo) bool) []string {
	n := 0
	for _, w := range u.Widgets {
		if match(w) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for _, w := range u.Widgets {
		if match(w) {
			out = append(out, w.Ref)
		}
	}
	return out
}

// Dump observes the current UI.
func (d *Device) Dump() (UIDump, error) {
	var u UIDump
	err := d.DumpInto(&u)
	return u, err
}

// DumpInto observes the current UI into u, refilling u's Widgets and
// FMFragments in place so that a caller observing repeatedly reuses their
// storage. Whatever u held before is overwritten, and slices taken from it
// earlier may change. On error u is left empty.
func (d *Device) DumpInto(u *UIDump) error {
	*u = UIDump{Widgets: u.Widgets[:0], FMFragments: u.FMFragments[:0]}
	if d.crashed {
		return ErrCrashed
	}
	t := d.top()
	if t == nil {
		return ErrNotRunning
	}
	u.Activity, u.HasDialog = t.class, t.dialog != nil
	// Size the widget list exactly: every IDRef'd widget in the content tree
	// and each live fragment's tree produces one entry regardless of
	// visibility, and layouts are immutable, so the per-layout census is
	// memoized and the sum is exact — at most one allocation, no growslice
	// ladder.
	n, nfm := 0, 0
	if t.content != nil {
		n = t.content.IDRefCount()
	}
	for _, f := range t.frags {
		if f.content != nil {
			n += f.content.IDRefCount()
		}
		if f.viaFM {
			nfm++
		}
	}
	if cap(u.Widgets) < n {
		u.Widgets = make([]WidgetInfo, 0, n)
	}
	if t.content != nil {
		d.dumpTree(u, t, t.content.Root, true, nil)
	}
	for _, f := range t.frags {
		if f.content == nil {
			continue
		}
		baseVis := true
		if t.content != nil {
			if _, vis, ok := findInTree(t.content, f.container, t.visible); ok {
				baseVis = vis
			}
		}
		d.dumpTree(u, t, f.content.Root, baseVis, f)
	}

	if cap(u.FMFragments) < nfm {
		u.FMFragments = make([]string, 0, nfm)
	}
	for _, f := range t.frags {
		if f.viaFM {
			u.FMFragments = append(u.FMFragments, f.class)
		}
	}
	sort.Strings(u.FMFragments)
	return nil
}

// dumpTree appends the widgets of the subtree at w to u in draw order; vis
// is the effective visibility of w's parent, and owner the live fragment
// whose layout the tree is, nil for the activity's own.
func (d *Device) dumpTree(u *UIDump, t *activityInstance, w *layout.Widget, vis bool, owner *fragmentInstance) {
	if w == nil {
		return
	}
	wVis := vis && widgetVisible(w, t.visible)
	if w.IDRef != "" {
		ref := apk.NormalizeRef(w.IDRef)
		info := WidgetInfo{
			Ref:      ref,
			Type:     w.Type,
			Text:     w.Text,
			Visible:  wVis,
			Editable: w.Input(),
		}
		if owner != nil {
			info.FromFragment = owner.class
		}
		if txt, ok := t.texts[ref]; ok {
			info.Text = txt
		}
		_, info.Clickable = d.handlerFor(t, w, widgetOwner{fragment: owner}, ref)
		if w.Type == layout.TypeCheckBox {
			info.Clickable = true // toggles even without a handler
		}
		u.Widgets = append(u.Widgets, info)
	}
	for _, c := range w.Children {
		d.dumpTree(u, t, c, wVis, owner)
	}
}

// ActiveFragments returns ground truth about live fragments: every fragment
// instance in the foreground activity with its via-FragmentManager flag.
// Tests check Dump against it; the explorer must rely on Dump (which hides
// non-FM fragments), like real instrumentation.
func (d *Device) ActiveFragments() map[string]bool {
	t := d.top()
	if t == nil || d.crashed {
		return nil
	}
	out := make(map[string]bool)
	for _, f := range t.frags {
		out[f.class] = f.viaFM
	}
	return out
}

// String renders the dump for logs and debugging.
func (u UIDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "activity=%s dialog=%v fm=%v\n", u.Activity, u.HasDialog, u.FMFragments)
	for _, w := range u.Widgets {
		flags := ""
		if w.Visible {
			flags += "V"
		}
		if w.Clickable {
			flags += "C"
		}
		if w.Editable {
			flags += "E"
		}
		src := "activity"
		if w.FromFragment != "" {
			src = w.FromFragment
		}
		fmt.Fprintf(&b, "  %-40s %-12s [%-3s] %s\n", w.Ref, w.Type, flags, src)
	}
	return b.String()
}
