package apk

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"fragdroid/internal/layout"
	"fragdroid/internal/manifest"
	"fragdroid/internal/res"
	"fragdroid/internal/smali"
)

// Archive entry-path conventions.
const (
	ManifestPath = "AndroidManifest.xml"
	LayoutDir    = "res/layout/"
	SmaliDir     = "smali/"
)

// ErrPacked is returned by Load for packer-protected archives; such apps are
// excluded from analysis, as in the paper's dataset preparation.
var ErrPacked = errors.New("apk: package is packer-protected; cannot decompile")

// App is the fully decoded, validated application bundle every other part of
// the system works with. It is the output of the "Decompile APK" step
// (§IV-B1): manifest, layouts, and smali program. Static analysis and the
// device runtime name each widget by its normalized resource reference.
type App struct {
	// Manifest is the parsed AndroidManifest.xml.
	Manifest *manifest.Manifest
	// Layouts maps layout resource names to their widget trees.
	Layouts map[string]*layout.Layout
	// Program is the decompiled smali code of the whole app.
	Program *smali.Program

	// irState is an opaque, atomically-swapped slot owned by internal/ir
	// (kept untyped here to avoid an import cycle): it carries the app's
	// compiled program once its first execution has compiled it, so every
	// device of the app shares one program and its inline caches.
	// Living on the App ties the registry's lifetime to the app — a
	// process-global map keyed by app pointer would pin every app ever
	// loaded, a real leak for long-lived static-only consumers.
	irState atomic.Value
}

// IRState exposes the compiled-program slot to internal/ir. Other packages
// must not touch it.
func (a *App) IRState() *atomic.Value { return &a.irState }

// Load decodes an archive into an App. Packed archives yield ErrPacked. A
// layout is named by its file's base name, so two files of one name in
// different directories under LayoutDir are a duplicate layout, as they are
// for Assemble and DecodeApp.
func Load(a *Archive) (*App, error) {
	if a.Packed() {
		return nil, ErrPacked
	}
	manData, ok := a.Get(ManifestPath)
	if !ok {
		return nil, fmt.Errorf("apk: archive has no %s", ManifestPath)
	}
	man, err := manifest.Parse(manData)
	if err != nil {
		return nil, err
	}

	paths := a.WithPrefix(LayoutDir)
	layouts := make(map[string]*layout.Layout, len(paths))
	for _, p := range paths {
		base := path.Base(p)
		name := strings.TrimSuffix(base, ".xml")
		if name == base {
			return nil, fmt.Errorf("apk: layout entry %q is not an .xml file", p)
		}
		if layouts[name] != nil {
			return nil, fmt.Errorf("apk: duplicate layout %s", name)
		}
		data, _ := a.Get(p)
		l, err := layout.Parse(name, data)
		if err != nil {
			return nil, err
		}
		layouts[name] = l
	}

	smaliFiles := make(map[string][]byte)
	for _, p := range a.WithPrefix(SmaliDir) {
		if !strings.HasSuffix(p, ".smali") {
			return nil, fmt.Errorf("apk: code entry %q is not a .smali file", p)
		}
		data, _ := a.Get(p)
		smaliFiles[p] = data
	}
	prog, err := smali.ParseProgram(smaliFiles)
	if err != nil {
		return nil, err
	}

	app := &App{Manifest: man, Layouts: layouts, Program: prog}
	if err := app.Lint(); err != nil {
		return nil, err
	}
	return app, nil
}

// Assemble constructs an App directly from in-memory parts, running the
// same validation and lint steps as Load without the serialize-then-reparse
// round trip. Layouts are validated in sorted-name order and classes added
// in sorted-archive-path order, mirroring Load's sorted-path iteration, so
// the first error and the program order are those of loading the equivalent
// archive. Programmatically built classes are checked with
// smali.Class.Check, the parser's validation.
func Assemble(man *manifest.Manifest, layouts []*layout.Layout, classes []*smali.Class) (*App, error) {
	if err := man.Validate(); err != nil {
		return nil, err
	}
	lmap := make(map[string]*layout.Layout, len(layouts))
	ordered := append([]*layout.Layout(nil), layouts...)
	slices.SortFunc(ordered, func(a, b *layout.Layout) int { return strings.Compare(a.Name, b.Name) })
	for _, l := range ordered {
		if lmap[l.Name] != nil {
			return nil, fmt.Errorf("apk: duplicate layout %s", l.Name)
		}
		if err := l.Validate(); err != nil {
			return nil, err
		}
		lmap[l.Name] = l
	}
	prog := smali.NewProgramSized(len(classes))
	// The sort key, each class's archive path, is built once per class.
	type pathClass struct {
		path string
		c    *smali.Class
	}
	orderedC := make([]pathClass, len(classes))
	for i, c := range classes {
		orderedC[i] = pathClass{smaliPath(c.Name), c}
	}
	slices.SortFunc(orderedC, func(a, b pathClass) int { return strings.Compare(a.path, b.path) })
	for _, pc := range orderedC {
		c := pc.c
		if err := c.Check(); err != nil {
			return nil, err
		}
		if c.SourceFile == "" {
			c.SourceFile = pc.path
		}
		if err := prog.Add(c); err != nil {
			return nil, err
		}
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	app := &App{Manifest: man, Layouts: lmap, Program: prog}
	if err := app.Lint(); err != nil {
		return nil, err
	}
	return app, nil
}

// smaliPath is the canonical archive entry path of a class, built in one
// allocation.
func smaliPath(name string) string {
	var b strings.Builder
	b.Grow(len(SmaliDir) + len(name) + len(".smali"))
	b.WriteString(SmaliDir)
	for {
		dot := strings.IndexByte(name, '.')
		if dot < 0 {
			break
		}
		b.WriteString(name[:dot])
		b.WriteByte('/')
		name = name[dot+1:]
	}
	b.WriteString(name)
	b.WriteString(".smali")
	return b.String()
}

// LoadBytes decodes a serialized archive into an App.
func LoadBytes(data []byte) (*App, error) {
	arch, err := ParseArchive(data)
	if err != nil {
		return nil, err
	}
	return Load(arch)
}

// Pack assembles the App back into an archive (the corpus generators build
// Apps programmatically and serialize them through here, guaranteeing that
// everything the system consumes went through the real parsers).
func (app *App) Pack() (*Archive, error) {
	a := NewArchive()
	manData, err := app.Manifest.Encode()
	if err != nil {
		return nil, err
	}
	if err := a.Put(ManifestPath, manData); err != nil {
		return nil, err
	}
	for _, name := range app.LayoutNames() {
		data, err := app.Layouts[name].Encode()
		if err != nil {
			return nil, err
		}
		if err := a.Put(LayoutDir+name+".xml", data); err != nil {
			return nil, err
		}
	}
	for _, cn := range app.Program.Names() {
		c := app.Program.Class(cn)
		if err := a.Put(smaliPath(cn), smali.WriteClass(c)); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// LayoutNames returns the app's layout names, sorted.
func (app *App) LayoutNames() []string {
	out := make([]string, 0, len(app.Layouts))
	for n := range app.Layouts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lint cross-checks the bundle:
//   - every manifest activity has a class in the program, and that class is
//     an Activity subclass;
//   - every set-content-view layout reference resolves to a bundled layout;
//   - every fragment-transaction target class is a Fragment subclass;
//   - every widget reference in the code (listener, transaction container,
//     text and visibility operands) is defined in some layout.
func (app *App) Lint() error {
	for _, an := range app.Manifest.ActivityNames() {
		c := app.Program.Class(an)
		if c == nil {
			return fmt.Errorf("apk: manifest activity %s has no class", an)
		}
		if !app.Program.IsActivityClass(an) {
			return fmt.Errorf("apk: manifest activity %s does not extend Activity", an)
		}
	}
	for _, r := range app.Manifest.Application.Receivers {
		if app.Program.Class(r.Name) == nil {
			return fmt.Errorf("apk: manifest receiver %s has no class", r.Name)
		}
		if !app.Program.IsSubclassOf(r.Name, smali.ClassReceiver) {
			return fmt.Errorf("apk: manifest receiver %s does not extend BroadcastReceiver", r.Name)
		}
	}
	refs := widgetRefs(app.Layouts)
	for _, cn := range app.Program.Names() {
		c := app.Program.Class(cn)
		for _, m := range c.Methods {
			for _, ins := range m.Body {
				if err := app.lintInstr(refs, cn, m.Name, ins); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (app *App) lintInstr(refs map[string]bool, class, method string, ins smali.Instr) error {
	where := func() string { return fmt.Sprintf("apk: %s.%s line %d", class, method, ins.Line) }
	switch ins.Op {
	case smali.OpSetContentView:
		kind, name, err := res.ParseRef(ins.Args[0])
		if err != nil {
			return fmt.Errorf("%s: %w", where(), err)
		}
		if kind != res.KindLayout {
			return fmt.Errorf("%s: set-content-view wants @layout, got %s", where(), ins.Args[0])
		}
		if app.Layouts[name] == nil {
			return fmt.Errorf("%s: unknown layout %s", where(), ins.Args[0])
		}
	case smali.OpTxnAdd, smali.OpTxnReplace, smali.OpInflateView:
		if !app.Program.IsFragmentClass(ins.Args[1]) {
			return fmt.Errorf("%s: %s target %s is not a Fragment subclass", where(), ins.Op, ins.Args[1])
		}
		if err := app.resolve(refs, ins.Args[0]); err != nil {
			return fmt.Errorf("%s: %w", where(), err)
		}
	case smali.OpTxnRemove:
		if !app.Program.IsFragmentClass(ins.Args[0]) {
			return fmt.Errorf("%s: txn-remove target %s is not a Fragment subclass", where(), ins.Args[0])
		}
	case smali.OpSetClickListener, smali.OpToggleVisible, smali.OpSetText, smali.OpRequireInput:
		if err := app.resolve(refs, ins.Args[0]); err != nil {
			return fmt.Errorf("%s: %w", where(), err)
		}
	}
	return nil
}

// resolve checks that ref names something the layouts define: a widget ID
// in refs, the app's widgetRefs, or a layout of the app. A malformed ref
// fails with ParseRef's error, an undefined one with a res.UnresolvedError.
func (app *App) resolve(refs map[string]bool, ref string) error {
	ref = normalizeRef(ref)
	kind, name, err := res.ParseRef(ref)
	if err != nil {
		return err
	}
	if refs[ref] || kind == res.KindLayout && app.Layouts[name] != nil {
		return nil
	}
	return &res.UnresolvedError{Ref: ref}
}

// widgetRefs returns the set of normalized widget references the layouts
// define.
func widgetRefs(layouts map[string]*layout.Layout) map[string]bool {
	n := 0
	for _, l := range layouts {
		l.Walk(func(w *layout.Widget) bool {
			if w.IDRef != "" {
				n++
			}
			return true
		})
	}
	refs := make(map[string]bool, n)
	for _, l := range layouts {
		l.Walk(func(w *layout.Widget) bool {
			if w.IDRef != "" {
				refs[normalizeRef(w.IDRef)] = true
			}
			return true
		})
	}
	return refs
}

// normalizeRef maps "@+id/x" to "@id/x" so lookups hit layout-defined IDs.
func normalizeRef(ref string) string {
	if strings.HasPrefix(ref, "@+") {
		return "@" + ref[2:]
	}
	return ref
}

// NormalizeRef is the exported form of normalizeRef for sibling packages.
func NormalizeRef(ref string) string { return normalizeRef(ref) }
