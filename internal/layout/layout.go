// Package layout models the res/layout/*.xml files of a synthetic application
// package. A layout is a tree of widgets; Activities and Fragments inflate
// layouts at runtime (device package), and the static phase scans layouts for
// resource IDs, clickable controls, input fields, static <fragment> tags, and
// fragment containers (Algorithm 3, resource dependency).
//
// The XML dialect mirrors the parts of Android layout XML that FragDroid
// cares about: the element name is the widget class, android-style attributes
// are plain attributes (id, text, hint, onClick, visible, class).
package layout

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"fragdroid/internal/res"
	"fragdroid/internal/xmlscan"
)

// Widget type names understood by the toolchain. Unknown names parse fine
// (forward compatibility) but are never clickable or focusable.
const (
	TypeLinearLayout   = "LinearLayout"
	TypeRelativeLayout = "RelativeLayout"
	TypeFrameLayout    = "FrameLayout"
	TypeDrawerLayout   = "DrawerLayout"
	TypeScrollView     = "ScrollView"
	TypeToolbar        = "Toolbar"
	TypeButton         = "Button"
	TypeImageButton    = "ImageButton"
	TypeTextView       = "TextView"
	TypeImageView      = "ImageView"
	TypeEditText       = "EditText"
	TypeCheckBox       = "CheckBox"
	TypeSpinner        = "Spinner"
	TypeListView       = "ListView"
	TypeTabItem        = "TabItem"
	TypeMenuItem       = "MenuItem"
	TypeFragment       = "fragment" // static fragment declaration
)

// Widget is one node of a layout tree.
type Widget struct {
	// Type is the widget class name (element name in XML).
	Type string
	// IDRef is the raw "@id/name" reference, empty if the widget is anonymous.
	IDRef string
	// Text is static display text.
	Text string
	// Hint is the EditText hint.
	Hint string
	// OnClick names the handler method bound in XML (android:onClick).
	OnClick string
	// Hidden marks widgets that are not initially visible (drawer contents,
	// slide menus). Hidden widgets cannot be clicked until revealed.
	Hidden bool
	// FragmentClass is the class of a static <fragment> declaration.
	FragmentClass string
	// Children are nested widgets.
	Children []*Widget
}

// Layout is a named widget tree.
type Layout struct {
	// Name is the layout resource name (file base name, e.g. "activity_main").
	Name string
	// Root is the top of the widget tree.
	Root *Widget

	// idRefs caches IDRefCount's census as count+1 (zero = not computed).
	// Accessed atomically: devices sharing one installed app read layouts
	// concurrently, and the computation is idempotent.
	idRefs int32
}

// IDRefCount returns the number of widgets in the tree carrying an ID
// reference — exactly the number of entries this layout contributes to a UI
// dump. Layouts are immutable once built, so the count is computed on first
// use and cached.
func (l *Layout) IDRefCount() int {
	if v := atomic.LoadInt32(&l.idRefs); v != 0 {
		return int(v - 1)
	}
	var n int32
	l.Walk(func(w *Widget) bool {
		if w.IDRef != "" {
			n++
		}
		return true
	})
	atomic.StoreInt32(&l.idRefs, n+1)
	return int(n)
}

// Clickable reports whether this widget reacts to clicks by itself: it has an
// XML-bound handler or is an inherently clickable control (CheckBoxes toggle
// on click even without a handler). Code-registered listeners are handled by
// the device on top of this.
func (w *Widget) Clickable() bool {
	if w.OnClick != "" {
		return true
	}
	switch w.Type {
	case TypeButton, TypeImageButton, TypeTabItem, TypeMenuItem, TypeCheckBox:
		return true
	}
	return false
}

// Input reports whether the widget accepts typed values (EditText, Spinner)
// — the widget classes the input-dependency file fills with text. CheckBoxes
// are input widgets in the paper's sense too, but they are driven by clicks
// (toggling), not text entry.
func (w *Widget) Input() bool {
	switch w.Type {
	case TypeEditText, TypeSpinner:
		return true
	}
	return false
}

// Container reports whether the widget is a fragment container: a FrameLayout
// with an ID, the target of FragmentTransaction.add/replace.
func (w *Widget) Container() bool {
	return w.Type == TypeFrameLayout && w.IDRef != ""
}

// Walk visits the widget and all descendants in depth-first pre-order,
// stopping early if fn returns false.
func (w *Widget) Walk(fn func(*Widget) bool) bool {
	if w == nil {
		return true
	}
	if !fn(w) {
		return false
	}
	for _, c := range w.Children {
		if !c.Walk(fn) {
			return false
		}
	}
	return true
}

// Walk visits every widget of the layout in depth-first pre-order.
func (l *Layout) Walk(fn func(*Widget) bool) {
	if l.Root != nil {
		l.Root.Walk(fn)
	}
}

// WidgetIDs returns the IDRefs of all identified widgets in tree order.
func (l *Layout) WidgetIDs() []string {
	var out []string
	l.Walk(func(w *Widget) bool {
		if w.IDRef != "" {
			out = append(out, w.IDRef)
		}
		return true
	})
	return out
}

// Find returns the first widget whose IDRef equals ref, or nil.
func (l *Layout) Find(ref string) *Widget {
	var found *Widget
	l.Walk(func(w *Widget) bool {
		if w.IDRef == ref {
			found = w
			return false
		}
		return true
	})
	return found
}

// StaticFragments returns the classes declared with <fragment> tags.
func (l *Layout) StaticFragments() []string {
	var out []string
	l.Walk(func(w *Widget) bool {
		if w.Type == TypeFragment && w.FragmentClass != "" {
			out = append(out, w.FragmentClass)
		}
		return true
	})
	return out
}

// Containers returns the IDRefs of all fragment containers.
func (l *Layout) Containers() []string {
	var out []string
	l.Walk(func(w *Widget) bool {
		if w.Container() {
			out = append(out, w.IDRef)
		}
		return true
	})
	return out
}

// Validate checks the layout: a root must exist, IDs must be well-formed
// references, fragment tags must carry a class, and IDs must be unique within
// the layout. It is Index.Add on an index of its own.
func (l *Layout) Validate() error {
	return make(Index).Add(l)
}

// Index records the widget references of an app's layouts as Add validates
// each layout, in the one walk that validates it. It is keyed by normalized
// reference: "@+id/x" and "@id/x" are one entry, whose mark says which
// spellings the layout that last defined it used. The app checks its code's
// references against the index (Defines), and len reports how many
// distinct references the layouts define.
type Index map[string]refMark

// refMark is the most recent layout to define a reference, and the
// spellings (plainRef, newRef) that layout defined it in.
type refMark struct {
	layout    *Layout
	spellings uint8
}

// The spellings of one normalized reference.
const (
	plainRef uint8 = 1 << iota // "@kind/name"
	newRef                     // "@+kind/name"
)

// refKey returns the index key of ref, the reference after its "@" or "@+"
// (a substring, so a lookup builds no string), and the spelling; ok is
// false for a ref without a leading '@'.
func refKey(ref string) (key string, spelling uint8, ok bool) {
	switch {
	case strings.HasPrefix(ref, "@+"):
		return ref[2:], newRef, true
	case strings.HasPrefix(ref, "@"):
		return ref[1:], plainRef, true
	}
	return "", 0, false
}

// Add validates l and records its widget references, walking it once. It
// returns the first rule l breaks, in walk order: a widget without a type,
// an ID that is not a well-formed reference, an ID the layout already
// defines in the same spelling, or a <fragment> without a class. One ID in
// two layouts, or "@+id/x" beside "@id/x" in one, is no duplicate.
func (x Index) Add(l *Layout) error {
	if l.Name == "" {
		return fmt.Errorf("layout: empty name")
	}
	if l.Root == nil {
		return fmt.Errorf("layout %s: no root widget", l.Name)
	}
	var err error
	l.Walk(func(w *Widget) bool {
		if w.Type == "" {
			err = fmt.Errorf("layout %s: widget with empty type", l.Name)
			return false
		}
		if w.IDRef != "" {
			if _, _, e := res.ParseRef(w.IDRef); e != nil {
				err = fmt.Errorf("layout %s: %w", l.Name, e)
				return false
			}
			key, spelling, _ := refKey(w.IDRef)
			m := x[key]
			if m.layout != l {
				m = refMark{layout: l}
			} else if m.spellings&spelling != 0 {
				err = fmt.Errorf("layout %s: duplicate widget id %s", l.Name, w.IDRef)
				return false
			}
			m.spellings |= spelling
			x[key] = m
		}
		if w.Type == TypeFragment && w.FragmentClass == "" {
			err = fmt.Errorf("layout %s: <fragment> without class", l.Name)
			return false
		}
		return true
	})
	return err
}

// Defines reports whether some layout added to the index defines ref, in
// either spelling.
func (x Index) Defines(ref string) bool {
	key, _, ok := refKey(ref)
	if !ok {
		return false
	}
	_, found := x[key]
	return found
}

// Parse decodes a layout XML document. name is the layout resource name
// (typically the file base name without extension). A document in the
// dialect Encode writes is read by xmlscan in one pass; any other goes
// through encoding/xml, which gives the same layout or error for it. The
// layout is validated alone: Parse is Index.Parse on an index of its own.
func Parse(name string, data []byte) (*Layout, error) {
	return make(Index).Parse(name, data)
}

// Parse decodes a layout XML document as the package's Parse does, then
// validates and records it with Add.
func (x Index) Parse(name string, data []byte) (*Layout, error) {
	root, ok := scanWidgets(data)
	if !ok {
		var err error
		if root, err = parseXML(name, data); err != nil {
			return nil, err
		}
	}
	l := &Layout{Name: name, Root: root}
	if err := x.Add(l); err != nil {
		return nil, err
	}
	return l, nil
}

// scanWidgets builds the widget tree of a document inside the xmlscan
// dialect, applying attributes with setAttr as parseWidget does. It reports
// false for any document outside the dialect. A leaf keeps Children nil, as
// parseWidget leaves it.
func scanWidgets(data []byte) (*Widget, bool) {
	s := xmlscan.New(data)
	var root *Widget
	open := make([]*Widget, 0, 8)
	for {
		switch s.Next() {
		case xmlscan.Start:
			w := &Widget{Type: s.Name()}
			for _, a := range s.Attrs() {
				setAttr(w, a.Name, a.Value)
			}
			if n := len(open); n > 0 {
				open[n-1].Children = append(open[n-1].Children, w)
			} else {
				root = w
			}
			open = append(open, w)
		case xmlscan.End:
			open = open[:len(open)-1]
		case xmlscan.Done:
			return root, true
		default:
			return nil, false
		}
	}
}

// parseXML decodes a layout's widget tree with encoding/xml. It is the
// reference for scanWidgets and the only reader of documents outside its
// dialect.
func parseXML(name string, data []byte) (*Widget, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	var root *Widget
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("layout %s: %w", name, err)
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		if root != nil {
			return nil, fmt.Errorf("layout %s: multiple root elements", name)
		}
		root, err = parseWidget(dec, se)
		if err != nil {
			return nil, fmt.Errorf("layout %s: %w", name, err)
		}
	}
	return root, nil
}

func parseWidget(dec *xml.Decoder, se xml.StartElement) (*Widget, error) {
	w := &Widget{Type: se.Name.Local}
	// The local part of a prefixed name need not be a name of its own:
	// Encode would write the type of <p:0/> as <0/>, which no parser reads.
	// The translated Space does not tell whether there was a prefix, since
	// xmlns:p="" maps p back to the empty space, so every type is checked.
	if !elementName(w.Type) {
		return nil, fmt.Errorf("widget type %q is not an XML element name", w.Type)
	}
	for _, a := range se.Attr {
		setAttr(w, a.Name.Local, a.Value)
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			c, err := parseWidget(dec, t)
			if err != nil {
				return nil, err
			}
			w.Children = append(w.Children, c)
		case xml.EndElement:
			return w, nil
		}
	}
}

// elementName reports whether Encode can write typ as an element name that
// encoding/xml reads back as typ: an XML name without a namespace prefix.
func elementName(typ string) bool {
	tok, err := xml.NewDecoder(strings.NewReader("<" + typ + "/>")).RawToken()
	se, ok := tok.(xml.StartElement)
	return err == nil && ok && se.Name == xml.Name{Local: typ}
}

// setAttr applies one attribute of a widget's element; unknown attributes
// are ignored.
func setAttr(w *Widget, name, value string) {
	switch name {
	case "id":
		w.IDRef = value
	case "text":
		w.Text = value
	case "hint":
		w.Hint = value
	case "onClick":
		w.OnClick = value
	case "class", "name":
		w.FragmentClass = value
	case "visible":
		w.Hidden = value == "false" || value == "gone"
	}
}

// Encode renders the layout back to XML.
func (l *Layout) Encode() ([]byte, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.WriteString(xml.Header)
	encodeWidget(&buf, l.Root, 0)
	return buf.Bytes(), nil
}

func encodeWidget(buf *bytes.Buffer, w *Widget, depth int) {
	ind := strings.Repeat("  ", depth)
	buf.WriteString(ind)
	buf.WriteByte('<')
	buf.WriteString(w.Type)
	writeAttr(buf, "id", w.IDRef)
	writeAttr(buf, "text", w.Text)
	writeAttr(buf, "hint", w.Hint)
	writeAttr(buf, "onClick", w.OnClick)
	if w.FragmentClass != "" {
		writeAttr(buf, "class", w.FragmentClass)
	}
	if w.Hidden {
		writeAttr(buf, "visible", "false")
	}
	if len(w.Children) == 0 {
		buf.WriteString("/>\n")
		return
	}
	buf.WriteString(">\n")
	for _, c := range w.Children {
		encodeWidget(buf, c, depth+1)
	}
	buf.WriteString(ind)
	buf.WriteString("</")
	buf.WriteString(w.Type)
	buf.WriteString(">\n")
}

func writeAttr(buf *bytes.Buffer, name, val string) {
	if val == "" {
		return
	}
	buf.WriteByte(' ')
	buf.WriteString(name)
	buf.WriteString(`="`)
	xml.EscapeText(buf, []byte(val))
	buf.WriteByte('"')
}

// B is a tiny fluent builder for layouts used by corpus generators and tests.
type B struct {
	w *Widget
}

// Root starts a builder with a root widget of the given type. A built
// widget's Children is empty but not nil even on a leaf: the apk codec
// records nil-ness, and built apps have always encoded their leaves (and so
// derived their content fingerprints) that way.
func Root(typ string) *B { return RootN(typ, 0) }

// RootN is Root for a widget that will take n children: its child list is
// sized once, here, so the Child calls that fill it never regrow it.
func RootN(typ string, n int) *B {
	return &B{w: &Widget{Type: typ, Children: make([]*Widget, 0, n)}}
}

// ID sets the widget ID reference.
func (b *B) ID(ref string) *B { b.w.IDRef = ref; return b }

// Text sets display text.
func (b *B) Text(s string) *B { b.w.Text = s; return b }

// Hint sets the input hint.
func (b *B) Hint(s string) *B { b.w.Hint = s; return b }

// OnClick binds an XML click handler.
func (b *B) OnClick(m string) *B { b.w.OnClick = m; return b }

// Hidden marks the widget initially invisible.
func (b *B) HiddenW() *B { b.w.Hidden = true; return b }

// Class sets the fragment class for <fragment> widgets.
func (b *B) Class(c string) *B { b.w.FragmentClass = c; return b }

// Child appends child builders.
func (b *B) Child(children ...*B) *B {
	for _, c := range children {
		b.w.Children = append(b.w.Children, c.w)
	}
	return b
}

// BuildLayout finishes the tree into a named layout. It does not validate
// it: apk.Assemble validates every layout it assembles, and Encode every
// layout it writes. The layout takes the builder's tree over without
// copying it, so neither the builder nor its child builders may be changed
// afterwards.
func (b *B) BuildLayout(name string) *Layout {
	return &Layout{Name: name, Root: b.w}
}
