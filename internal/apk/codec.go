package apk

import (
	"fmt"

	"fragdroid/internal/binc"
	"fragdroid/internal/layout"
	"fragdroid/internal/manifest"
	"fragdroid/internal/res"
	"fragdroid/internal/smali"
)

// The app payload is a binc encoding: manifest, the number of distinct
// references the layouts define, then layouts sorted by name, then classes
// in program order (sorted archive path). Decoding re-adds the classes in
// the exact order of the original construction, so class iteration order
// comes out identical. binc's interned string table is what makes the warm
// path fast: opcode arguments, access flags and class names repeat across
// every method body, and each is decoded exactly once.

// EncodeApp serializes a decoded App to the compact binary form DecodeApp
// reads. Unlike Pack, the output is not a .sapk archive: it captures the
// already-parsed structures, so decoding skips the parsers entirely.
func EncodeApp(app *App) ([]byte, error) {
	w := binc.NewWriter()
	if app.Manifest == nil {
		return nil, fmt.Errorf("apk: encode app: missing manifest")
	}
	encodeManifest(w, app.Manifest)
	names := app.LayoutNames()
	// The reference count once sized a resource-ID table. Nothing reads it
	// back now, but dropping it would change every encoding.
	w.Int(refCount(app.Layouts, names))
	w.Int(len(names))
	for _, name := range names {
		l := app.Layouts[name]
		if l == nil || l.Root == nil {
			return nil, fmt.Errorf("apk: encode app: malformed layout %q", name)
		}
		w.Str(l.Name)
		// Node count ahead of the tree, so the decoder allocates the whole
		// tree as one arena.
		w.Int(countWidgets(l.Root))
		encodeWidget(w, l.Root)
	}
	w.Int(app.Program.Len())
	for i := 0; i < app.Program.Len(); i++ {
		encodeClass(w, app.Program.ClassAt(i))
	}
	return w.Bytes(), nil
}

// refCount is the number of distinct references the layouts define: each
// layout's @layout/name and each normalized widget reference. A widget may
// name a layout ("@+layout/x"), so that layout counts once. names is the
// layouts' names, sorted; the index takes them in that order, as Assemble
// does. A layout no build would accept stops the count at its first
// broken rule.
func refCount(layouts map[string]*layout.Layout, names []string) int {
	refs := make(layout.Index, refsPerLayout*len(names))
	for _, name := range names {
		if l := layouts[name]; l == nil || refs.Add(l) != nil {
			break
		}
	}
	n := len(layouts) + len(refs)
	for _, name := range names {
		if refs.Defines("@layout/" + name) {
			n--
		}
	}
	return n
}

func encodeManifest(w *binc.Writer, m *manifest.Manifest) {
	w.Str(m.XMLName.Space)
	w.Str(m.XMLName.Local)
	w.Str(m.Package)
	w.Str(m.VersionName)
	w.Int(len(m.Permissions))
	for _, p := range m.Permissions {
		w.Str(p.Name)
	}
	w.Str(m.Application.Label)
	w.Int(len(m.Application.Activities))
	for _, a := range m.Application.Activities {
		w.Str(a.Name)
		w.Bool(a.Exported)
		encodeFilters(w, a.Filters)
	}
	w.Int(len(m.Application.Receivers))
	for _, rc := range m.Application.Receivers {
		w.Str(rc.Name)
		encodeFilters(w, rc.Filters)
	}
}

func encodeFilters(w *binc.Writer, fs []manifest.IntentFilter) {
	w.Int(len(fs))
	for _, f := range fs {
		w.Int(len(f.Actions))
		for _, a := range f.Actions {
			w.Str(a.Name)
		}
		w.Int(len(f.Categories))
		for _, c := range f.Categories {
			w.Str(c.Name)
		}
		w.Int(len(f.Data))
		for _, d := range f.Data {
			w.Str(d.URI)
		}
	}
}

func countWidgets(wd *layout.Widget) int {
	n := 1
	for _, c := range wd.Children {
		n += countWidgets(c)
	}
	return n
}

func encodeWidget(w *binc.Writer, wd *layout.Widget) {
	w.Str(wd.Type)
	w.Str(wd.IDRef)
	w.Str(wd.Text)
	w.Str(wd.Hint)
	w.Str(wd.OnClick)
	w.Bool(wd.Hidden)
	w.Str(wd.FragmentClass)
	// Children's nil-ness is preserved (some construction paths leave an
	// empty non-nil slice), so a decoded app is DeepEqual to its original.
	w.Bool(wd.Children != nil)
	w.Int(len(wd.Children))
	for _, c := range wd.Children {
		encodeWidget(w, c)
	}
}

func encodeClass(w *binc.Writer, c *smali.Class) {
	w.Str(c.Name)
	w.Str(c.Super)
	w.StrSlice(c.Interfaces)
	w.StrSlice(c.Access)
	w.Bool(c.RequiresArgs)
	w.Int(len(c.Fields))
	for _, f := range c.Fields {
		w.Str(f.Name)
		w.Str(f.Descriptor)
		w.StrSlice(f.Access)
	}
	w.Int(len(c.Methods))
	// Per-class instruction and operand totals size the decoder's arenas.
	var nInstrs, nArgs int
	for _, m := range c.Methods {
		nInstrs += len(m.Body)
		for _, in := range m.Body {
			nArgs += len(in.Args)
		}
	}
	w.Int(nInstrs)
	w.Int(nArgs)
	for _, m := range c.Methods {
		w.Str(m.Name)
		w.StrSlice(m.Access)
		w.Int(len(m.Body))
		for _, in := range m.Body {
			w.Str(string(in.Op))
			w.StrSlice(in.Args)
			w.Int(in.Line)
		}
	}
	w.Str(c.SourceFile)
}

// DecodeApp reconstructs an App from EncodeApp output. The classes are
// re-added in their stored order, reproducing the program of the encoded App
// exactly. Each widget ID must parse as a resource reference.
//
// DecodeApp trusts its input: it skips the per-class Check, program
// Validate and bundle lint that Load and Assemble run, which is what makes a
// warm load fast. Callers must only feed it payloads whose integrity is
// established elsewhere (the artifact store verifies a sha256 checksum
// before handing bytes over). Corrupt input still yields an error, never a
// panic: every count that sizes an allocation is checked against the bytes
// left to decode, and the arena totals must match what they size, so
// decoding allocates at most a constant multiple of the payload.
func DecodeApp(data []byte) (*App, error) {
	r, err := binc.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("apk: decode app: %w", err)
	}
	m := decodeManifest(r)
	// The reference count is only bounds-checked: each reference is a layout
	// or a widget ID, and a layout with its root widget takes at least 11
	// bytes for two references.
	r.Count(5)
	nLayouts := r.Count(2 + minWidgetSize) // a name, a node count and a root
	layouts := make(map[string]*layout.Layout, nLayouts)
	for i := 0; i < nLayouts; i++ {
		l := &layout.Layout{Name: r.Str()}
		if r.Err() != nil {
			break
		}
		if l.Name == "" {
			return nil, fmt.Errorf("apk: decode app: malformed layout entry")
		}
		if layouts[l.Name] != nil {
			return nil, fmt.Errorf("apk: decode app: duplicate layout %s", l.Name)
		}
		arena := make([]layout.Widget, r.Count(minWidgetSize))
		if r.Err() != nil {
			break
		}
		if len(arena) == 0 {
			return nil, fmt.Errorf("apk: decode app: layout %s has no root", l.Name)
		}
		l.Root = &arena[0]
		rest, err := decodeWidget(r, l.Root, arena[1:])
		if err != nil {
			return nil, fmt.Errorf("apk: decode app: layout %s: %w", l.Name, err)
		}
		if r.Err() != nil {
			break
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("apk: decode app: layout %s: %d nodes beyond the tree", l.Name, len(rest))
		}
		layouts[l.Name] = l
	}
	nClasses := r.Count(8) // six strings, slices and counts, a bool and a source file
	prog := smali.NewProgramSized(nClasses)
	for i := 0; i < nClasses; i++ {
		c, err := decodeClass(r)
		if err != nil {
			return nil, fmt.Errorf("apk: decode app: %w", err)
		}
		if r.Err() != nil {
			break
		}
		if err := prog.Add(c); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("apk: decode app: %w", err)
	}
	if m.Package == "" {
		return nil, fmt.Errorf("apk: decode app: missing manifest")
	}
	return &App{Manifest: m, Layouts: layouts, Program: prog}, nil
}

func decodeManifest(r *binc.Reader) *manifest.Manifest {
	m := &manifest.Manifest{}
	m.XMLName.Space = r.Str()
	m.XMLName.Local = r.Str()
	m.Package = r.Str()
	m.VersionName = r.Str()
	if n := r.Count(1); n > 0 { // a name
		m.Permissions = make([]manifest.Permission, n)
		for i := range m.Permissions {
			m.Permissions[i].Name = r.Str()
		}
	}
	m.Application.Label = r.Str()
	if n := r.Count(3); n > 0 { // a name, a bool and a filter count
		m.Application.Activities = make([]manifest.Activity, n)
		for i := range m.Application.Activities {
			a := &m.Application.Activities[i]
			a.Name = r.Str()
			a.Exported = r.Bool()
			a.Filters = decodeFilters(r)
		}
	}
	if n := r.Count(2); n > 0 { // a name and a filter count
		m.Application.Receivers = make([]manifest.Receiver, n)
		for i := range m.Application.Receivers {
			rc := &m.Application.Receivers[i]
			rc.Name = r.Str()
			rc.Filters = decodeFilters(r)
		}
	}
	return m
}

func decodeFilters(r *binc.Reader) []manifest.IntentFilter {
	n := r.Count(3) // three counts
	if n == 0 {
		return nil
	}
	fs := make([]manifest.IntentFilter, n)
	for i := range fs {
		if na := r.Count(1); na > 0 {
			fs[i].Actions = make([]manifest.Action, na)
			for j := range fs[i].Actions {
				fs[i].Actions[j].Name = r.Str()
			}
		}
		if nc := r.Count(1); nc > 0 {
			fs[i].Categories = make([]manifest.Category, nc)
			for j := range fs[i].Categories {
				fs[i].Categories[j].Name = r.Str()
			}
		}
		if nd := r.Count(1); nd > 0 {
			fs[i].Data = make([]manifest.Data, nd)
			for j := range fs[i].Data {
				fs[i].Data[j].URI = r.Str()
			}
		}
	}
	return fs
}

// minWidgetSize is the smallest encoding of a widget: six strings, two
// bools and a child count.
const minWidgetSize = 9

// decodeWidget decodes one widget into wd and its subtree into arena, the
// unused tail of the layout's node backing (the stored node count sizes
// it), rejecting any widget ID that res.ParseRef rejects. A widget's
// children take one contiguous run of the arena, so a tree that claims more
// nodes than its count is an error before anything is allocated for them.
// It returns the arena's unused tail.
func decodeWidget(r *binc.Reader, wd *layout.Widget, arena []layout.Widget) ([]layout.Widget, error) {
	wd.Type = r.Str()
	wd.IDRef = r.Str()
	wd.Text = r.Str()
	wd.Hint = r.Str()
	wd.OnClick = r.Str()
	wd.Hidden = r.Bool()
	wd.FragmentClass = r.Str()
	if wd.IDRef != "" {
		if _, _, err := res.ParseRef(wd.IDRef); err != nil {
			return arena, err
		}
	}
	notNil := r.Bool()
	n := r.Count(minWidgetSize)
	if r.Err() != nil || (!notNil && n == 0) {
		return arena, nil
	}
	if !notNil || n > len(arena) {
		return arena, fmt.Errorf("widget claims %d children, %d nodes left", n, len(arena))
	}
	kids := arena[:n]
	arena = arena[n:]
	wd.Children = make([]*layout.Widget, n)
	var err error
	for i := range kids {
		wd.Children[i] = &kids[i]
		if arena, err = decodeWidget(r, &kids[i], arena); err != nil || r.Err() != nil {
			return arena, err
		}
	}
	return arena, nil
}

func decodeClass(r *binc.Reader) (*smali.Class, error) {
	c := &smali.Class{
		Name:       r.Str(),
		Super:      r.Str(),
		Interfaces: r.StrSlice(),
		Access:     r.StrSlice(),
	}
	c.RequiresArgs = r.Bool()
	if n := r.Count(3); n > 0 { // a name, a descriptor and an access list
		c.Fields = make([]smali.Field, n)
		for i := range c.Fields {
			c.Fields[i].Name = r.Str()
			c.Fields[i].Descriptor = r.Str()
			c.Fields[i].Access = r.StrSlice()
		}
	}
	if n := r.Count(3); n > 0 { // a name, an access list and a body length
		c.Methods = make([]*smali.Method, 0, n)
		// Three arenas for the whole class: methods, instructions and
		// operand strings, sized by the stored totals. Bodies and Args are
		// carved out of them, so a class costs a handful of allocations no
		// matter how many instructions it has.
		marena := make([]smali.Method, n)
		iarena := make([]smali.Instr, r.Count(3)) // an op, an argument list and a line
		sarena := make([]string, r.Count(1))
		for i := 0; i < n; i++ {
			m := &marena[i]
			m.Name = r.Str()
			m.Access = r.StrSlice()
			nb := r.Count(3)
			if nb > len(iarena) {
				return nil, fmt.Errorf("class %s: method bodies overrun the instruction total", c.Name)
			}
			if nb > 0 {
				m.Body, iarena = iarena[:nb:nb], iarena[nb:]
				for j := range m.Body {
					m.Body[j].Op = smali.Op(r.Str())
					na := r.Count(1)
					if na > len(sarena) {
						return nil, fmt.Errorf("class %s: operands overrun the operand total", c.Name)
					}
					if na > 0 {
						args := sarena[:na:na]
						sarena = sarena[na:]
						for k := range args {
							args[k] = r.Str()
						}
						m.Body[j].Args = args
					}
					m.Body[j].Line = r.Int()
				}
			}
			c.Methods = append(c.Methods, m)
			if r.Err() != nil {
				break
			}
		}
		if r.Err() == nil && len(iarena)+len(sarena) != 0 {
			return nil, fmt.Errorf("class %s: instruction or operand total exceeds the bodies", c.Name)
		}
	}
	c.SourceFile = r.Str()
	return c, nil
}
