// Package ir lowers a parsed smali program into a dense, flat instruction
// form the device interpreter dispatches without per-step string matching or
// map lookups. Compilation happens once per app: every instruction becomes a
// fixed-size record with a numeric opcode and operands pre-resolved to
// interned string IDs, class indexes, or layout indexes; lifecycle callbacks
// are resolved into per-class vtables; layouts are indexed by widget ID with
// precomputed visibility paths; and virtual dispatch sites get monomorphic
// inline-cache slots. The compiled Program is immutable after linking (only
// the inline-cache words mutate, atomically), so any number of devices across
// any number of goroutines can execute it concurrently.
//
// The semantics are exactly those of the classic interpreter in
// internal/device/interp.go — including its crash messages byte for byte —
// which the golden transcripts and the differential corpus test pin.
package ir

import (
	"sort"
	"sync/atomic"

	"fragdroid/internal/apk"
	"fragdroid/internal/layout"
	"fragdroid/internal/smali"
)

// Opcode is a numeric instruction opcode. The UI-gated range is contiguous
// so the window check is a pair of compares instead of a map lookup.
type Opcode uint8

const (
	opInvalid Opcode = iota // guards the zero value

	// UI-gated opcodes [OpSetContentView, OpGetSupportFragmentManager]
	// require an attached activity window; executing them in a
	// BroadcastReceiver force-closes the app. The set mirrors the classic
	// interpreter's uiOps table exactly. get-fragment-manager and its
	// support variant stay distinct opcodes because the IllegalStateException
	// message embeds the original smali op string.
	OpSetContentView
	OpSetClickListener
	OpToggleVisible
	OpSetText
	OpBeginTransaction
	OpTxnAdd
	OpTxnReplace
	OpTxnRemove
	OpTxnCommit
	OpInflateView
	OpShowDialog
	OpShowPopup
	OpRequireInput
	OpRequireExtra
	OpFinish
	OpGetFragmentManager
	OpGetSupportFragmentManager

	// Windowless opcodes. Source ops with identical runtime behaviour
	// collapse onto one opcode: new-intent/set-class, new-intent-action/
	// set-action, and the pure allocation ops plus nop.
	OpNewIntent
	OpNewIntentAction
	OpPutExtra
	OpStartActivity
	OpSendBroadcast
	OpPure
	OpCrash
	OpInvokeSensitive
	OpLog
	OpUnknown

	opCount
)

// opNames maps opcodes back to smali source spellings — the UI-gated range
// must match the source op exactly because crash messages embed it. Merged
// opcodes carry a representative name for debugging only.
var opNames = [opCount]string{
	opInvalid:                   "invalid",
	OpSetContentView:            string(smali.OpSetContentView),
	OpSetClickListener:          string(smali.OpSetClickListener),
	OpToggleVisible:             string(smali.OpToggleVisible),
	OpSetText:                   string(smali.OpSetText),
	OpBeginTransaction:          string(smali.OpBeginTransaction),
	OpTxnAdd:                    string(smali.OpTxnAdd),
	OpTxnReplace:                string(smali.OpTxnReplace),
	OpTxnRemove:                 string(smali.OpTxnRemove),
	OpTxnCommit:                 string(smali.OpTxnCommit),
	OpInflateView:               string(smali.OpInflateView),
	OpShowDialog:                string(smali.OpShowDialog),
	OpShowPopup:                 string(smali.OpShowPopup),
	OpRequireInput:              string(smali.OpRequireInput),
	OpRequireExtra:              string(smali.OpRequireExtra),
	OpFinish:                    string(smali.OpFinish),
	OpGetFragmentManager:        string(smali.OpGetFragmentManager),
	OpGetSupportFragmentManager: string(smali.OpGetSupportFragmentManager),
	OpNewIntent:                 string(smali.OpNewIntent),
	OpNewIntentAction:           string(smali.OpNewIntentAction),
	OpPutExtra:                  string(smali.OpPutExtra),
	OpStartActivity:             string(smali.OpStartActivity),
	OpSendBroadcast:             string(smali.OpSendBroadcast),
	OpPure:                      string(smali.OpNop),
	OpCrash:                     string(smali.OpCrash),
	OpInvokeSensitive:           string(smali.OpInvokeSensitive),
	OpLog:                       string(smali.OpLog),
	OpUnknown:                   "unknown",
}

// UIGated reports whether op requires an attached activity window.
func (op Opcode) UIGated() bool {
	return op >= OpSetContentView && op <= OpGetSupportFragmentManager
}

// Name returns the smali source spelling of the opcode.
func (op Opcode) Name() string {
	if op < opCount {
		return opNames[op]
	}
	return "invalid"
}

func (op Opcode) String() string { return op.Name() }

// Instr is one lowered instruction: 16 bytes, stored in one contiguous
// program-wide slice. A and B are operand indexes whose meaning depends on
// the opcode — usually indexes into Program.Strings, pre-resolved and
// interned at compile time. C carries the extra pre-resolved operand: the
// inline-cache site of a set-click-listener, or the class index of a
// txn-add/txn-replace/inflate-view fragment argument (-1 when the class is
// not in the program).
type Instr struct {
	Op      Opcode
	A, B, C int32
}

// Class is one linked class: resolved superclass link, precomputed flags,
// and lifecycle vtables.
type Class struct {
	Name string
	// Super is the next class index method resolution searches, or -1 when
	// the chain terminates (no super, framework super, or missing super —
	// all three end the classic methodOf walk identically).
	Super int32

	// Flags precomputed from the smali program.
	IsFragment   bool
	UsesFM       bool // the class or an inner class obtains a FragmentManager
	RequiresArgs bool
	// Framework marks a class whose name is in a framework namespace even
	// though the program declares it; method resolution never looks at it.
	Framework bool

	// Lifecycle vtables: resolved method indexes (-1 when absent), in
	// onCreate/onStart/onResume and onCreateView/onStart/onResume order.
	ActLife   [3]int32
	FragLife  [3]int32
	OnReceive int32

	// mOff and mEnd delimit the class's own methods in Program.Methods, in
	// declaration order. Resolve scans them, so the first declaration of a
	// name wins, matching smali.Class.Method's linear scan.
	mOff, mEnd int32
}

// Method is a compiled method: a window into Program.Code.
type Method struct {
	Name     string
	Class    int32
	Off, End int32
}

// PathStep is one widget on the root-to-widget path of a WidgetInfo, carrying
// exactly what the visibility walk needs.
type PathStep struct {
	NRef   string // normalized ID ref, "" for anonymous widgets
	Hidden bool
}

// WidgetInfo indexes one addressable widget of a layout: the first pre-order
// widget with its normalized ID, plus the ancestor path for visibility and an
// inline-cache site for its XML onClick handler.
type WidgetInfo struct {
	W    *layout.Widget
	Path []PathStep // root..widget inclusive, in order
	Site int32      // IC site for the XML onClick handler; 0 = none
}

// StaticFragment is a pre-resolved static <fragment> declaration of a layout,
// in pre-order.
type StaticFragment struct {
	Container string
	Class     string
	ClassID   int32 // -1 when the class is not in the program
}

// LayoutInfo is the linked form of one layout resource.
type LayoutInfo struct {
	Name    string
	L       *layout.Layout // nil when the app has no such layout
	Statics []StaticFragment
	ByRef   map[string]*WidgetInfo
}

// cacheSlot is one monomorphic inline cache: packed (classID+1)<<32 |
// (methodIdx+1), zero when empty. Slots are plain atomics so concurrent
// devices sharing the Program race benignly (last store wins; every store is
// a valid resolution for its receiver class).
type cacheSlot struct{ v atomic.Uint64 }

// Program is a compiled app: every method body lowered into one flat Code
// slice, with all derived tables linked against the app. Everything except
// the inline-cache slots is immutable after Compile returns.
type Program struct {
	Strings []string
	Classes []Class
	Methods []Method
	Code    []Instr
	Layouts []*LayoutInfo // sorted by layout name

	classIdx map[string]int32
	byPtr    map[*layout.Layout]*LayoutInfo
	// instrSites counts inline-cache sites allocated at compile time (site 0
	// is reserved to mean "no cache"); widget onClick sites follow at link.
	instrSites int32
	sites      []cacheSlot
}

// ClassID returns the class index for a dotted name, or -1.
func (p *Program) ClassID(name string) int32 {
	if i, ok := p.classIdx[name]; ok {
		return i
	}
	return -1
}

// Resolve finds the method index for (class, name) by walking the superclass
// chain, mirroring the classic methodOf. The walk is bounded by the class
// count so a cyclic hierarchy cannot hang it.
func (p *Program) Resolve(ci int32, name string) int32 {
	for hops := len(p.Classes); ci >= 0 && hops >= 0; hops-- {
		c := &p.Classes[ci]
		for mi := c.mOff; mi < c.mEnd; mi++ {
			if p.Methods[mi].Name == name {
				return mi
			}
		}
		ci = c.Super
	}
	return -1
}

// ICLoad consults an inline-cache site for a receiver class, returning the
// cached method index or -1 on miss.
func (p *Program) ICLoad(site, ci int32) int32 {
	v := p.sites[site].v.Load()
	if v != 0 && uint32(v>>32) == uint32(ci+1) {
		return int32(uint32(v)) - 1
	}
	return -1
}

// ICStore caches a resolution at a site. Monomorphic: a different receiver
// class simply replaces the previous entry.
func (p *Program) ICStore(site, ci, mi int32) {
	p.sites[site].v.Store(uint64(uint32(ci+1))<<32 | uint64(uint32(mi+1)))
}

// LayoutFor returns the linked info for an installed layout tree, or nil for
// a tree the program was not linked against.
func (p *Program) LayoutFor(l *layout.Layout) *LayoutInfo { return p.byPtr[l] }

// Lifecycle orders, matching the classic interpreter's hoisted arrays.
var (
	actLifecycle  = [...]string{"onCreate", "onStart", "onResume"}
	fragLifecycle = [...]string{"onCreateView", "onStart", "onResume"}
)

// compiler carries the intern tables of one Compile run.
type compiler struct {
	p         *Program
	strIdx    map[string]int32
	layoutIdx map[string]int32
	nextSite  int32
}

func (c *compiler) str(s string) int32 {
	if i, ok := c.strIdx[s]; ok {
		return i
	}
	i := int32(len(c.p.Strings))
	c.p.Strings = append(c.p.Strings, s)
	c.strIdx[s] = i
	return i
}

func (c *compiler) classRef(name string) int32 { return c.p.ClassID(name) }

func (c *compiler) site() int32 {
	s := c.nextSite
	c.nextSite++
	return s
}

// Compile lowers an app's smali program. It is deterministic: classes in
// program insertion order, methods in declaration order, layouts in sorted
// name order, strings interned first-seen — so every compilation of one app
// yields the same program. It counts the code first, so the program's
// tables are each allocated once, at their size.
func Compile(app *apk.App) *Program {
	sp := app.Program
	names := sp.Names()
	nmethods, ninstrs := 0, 0
	for _, name := range names {
		if smali.FrameworkClass(name) {
			continue
		}
		for _, m := range sp.Class(name).Methods {
			nmethods++
			ninstrs += len(m.Body)
		}
	}
	p := &Program{
		Classes: make([]Class, len(names)),
		Methods: make([]Method, 0, nmethods),
		Code:    make([]Instr, 0, ninstrs),
		// An instruction interns at most two operands, but most repeat:
		// the corpus apps intern about 0.6 strings per instruction.
		Strings:  make([]string, 0, ninstrs),
		classIdx: make(map[string]int32, len(names)),
	}
	c := &compiler{
		p:      p,
		strIdx: make(map[string]int32, ninstrs),
		// site 0 is reserved as "no cache".
		nextSite: 1,
	}
	for i, n := range names {
		p.classIdx[n] = int32(i)
	}

	lnames := make([]string, 0, len(app.Layouts))
	for n := range app.Layouts {
		lnames = append(lnames, n)
	}
	sort.Strings(lnames)
	c.layoutIdx = make(map[string]int32, len(lnames))
	p.Layouts = make([]*LayoutInfo, len(lnames))
	infos := make([]LayoutInfo, len(lnames))
	for i, n := range lnames {
		c.layoutIdx[n] = int32(i)
		infos[i].Name = n
		p.Layouts[i] = &infos[i]
	}

	for i, name := range names {
		sc := sp.Class(name)
		cls := &p.Classes[i]
		cls.Name = name
		cls.Super = -1
		cls.RequiresArgs = sc.RequiresArgs
		cls.IsFragment = sp.IsFragmentClass(name)
		cls.Framework = smali.FrameworkClass(name)
		cls.mOff = int32(len(p.Methods))
		cls.mEnd = cls.mOff
		if cls.Framework {
			// The classic methodOf refuses framework-named receivers before
			// looking at their methods, so none of this class's code is
			// reachable — don't compile it.
			continue
		}
		if su := sc.Super; su != "" && !smali.FrameworkClass(su) {
			if si, ok := p.classIdx[su]; ok {
				cls.Super = si
			}
		}
		for _, m := range sc.Methods {
			off := int32(len(p.Code))
			for _, ins := range m.Body {
				p.Code = append(p.Code, c.lower(ins))
			}
			p.Methods = append(p.Methods, Method{Name: m.Name, Class: int32(i), Off: off, End: int32(len(p.Code))})
		}
		cls.mEnd = int32(len(p.Methods))
	}

	// UsesFM mirrors the classic classUsesFM: the class plus its $-inner
	// classes, scanned for FragmentManager ops. The scan looks at smali
	// bodies directly — framework-named declared classes count here even
	// though their methods are never dispatched.
	ownFM := make([]bool, len(names))
	for i, name := range names {
		ownFM[i] = classHasFM(sp.Class(name))
	}
	for i, name := range names {
		uses := ownFM[i]
		if !uses {
			for _, inner := range sp.InnerClasses(name) {
				if ownFM[p.classIdx[inner]] {
					uses = true
					break
				}
			}
		}
		p.Classes[i].UsesFM = uses
	}

	// Lifecycle vtables, resolvable only once every class's methods are in.
	for i := range p.Classes {
		cls := &p.Classes[i]
		for k, n := range actLifecycle {
			cls.ActLife[k] = p.Resolve(int32(i), n)
		}
		for k, n := range fragLifecycle {
			cls.FragLife[k] = p.Resolve(int32(i), n)
		}
		cls.OnReceive = p.Resolve(int32(i), "onReceive")
	}

	p.instrSites = c.nextSite - 1
	p.link(app)
	return p
}

func classHasFM(c *smali.Class) bool {
	if c == nil {
		return false
	}
	for _, m := range c.Methods {
		for _, ins := range m.Body {
			if ins.Op == smali.OpGetFragmentManager || ins.Op == smali.OpGetSupportFragmentManager {
				return true
			}
		}
	}
	return false
}

// lower translates one smali instruction. Raw-versus-normalized operand
// choices follow the classic interpreter's messages exactly (toggle-visible's
// NullPointerException embeds the raw source ref, for example).
func (c *compiler) lower(ins smali.Instr) Instr {
	switch ins.Op {
	case smali.OpSetContentView:
		name := layoutNameOf(ins.Args[0])
		id := int32(-1)
		if i, ok := c.layoutIdx[name]; ok {
			id = i
		}
		return Instr{Op: OpSetContentView, A: id, B: c.str(name)}
	case smali.OpSetClickListener:
		return Instr{Op: OpSetClickListener, A: c.str(apk.NormalizeRef(ins.Args[0])), B: c.str(ins.Args[1]), C: c.site()}
	case smali.OpToggleVisible:
		return Instr{Op: OpToggleVisible, A: c.str(apk.NormalizeRef(ins.Args[0])), B: c.str(ins.Args[0])}
	case smali.OpSetText:
		return Instr{Op: OpSetText, A: c.str(apk.NormalizeRef(ins.Args[0])), B: c.str(ins.Args[1])}
	case smali.OpNewIntent, smali.OpSetClass:
		return Instr{Op: OpNewIntent, A: c.str(ins.Args[1])}
	case smali.OpNewIntentAction, smali.OpSetAction:
		return Instr{Op: OpNewIntentAction, A: c.str(ins.Args[0])}
	case smali.OpPutExtra:
		return Instr{Op: OpPutExtra, A: c.str(ins.Args[0]), B: c.str(ins.Args[1])}
	case smali.OpStartActivity:
		return Instr{Op: OpStartActivity}
	case smali.OpSendBroadcast:
		return Instr{Op: OpSendBroadcast, A: c.str(ins.Args[0])}
	case smali.OpFinish:
		return Instr{Op: OpFinish}
	case smali.OpGetFragmentManager:
		return Instr{Op: OpGetFragmentManager}
	case smali.OpGetSupportFragmentManager:
		return Instr{Op: OpGetSupportFragmentManager}
	case smali.OpBeginTransaction:
		return Instr{Op: OpBeginTransaction}
	case smali.OpTxnAdd:
		return Instr{Op: OpTxnAdd, A: c.str(apk.NormalizeRef(ins.Args[0])), B: c.str(ins.Args[1]), C: c.classRef(ins.Args[1])}
	case smali.OpTxnReplace:
		return Instr{Op: OpTxnReplace, A: c.str(apk.NormalizeRef(ins.Args[0])), B: c.str(ins.Args[1]), C: c.classRef(ins.Args[1])}
	case smali.OpTxnRemove:
		return Instr{Op: OpTxnRemove, A: c.str(ins.Args[0])}
	case smali.OpTxnCommit:
		return Instr{Op: OpTxnCommit}
	case smali.OpInflateView:
		return Instr{Op: OpInflateView, A: c.str(apk.NormalizeRef(ins.Args[0])), B: c.str(ins.Args[1]), C: c.classRef(ins.Args[1])}
	case smali.OpNewInstance, smali.OpInvokeNewIn, smali.OpInstanceOf, smali.OpNop:
		return Instr{Op: OpPure}
	case smali.OpShowDialog:
		return Instr{Op: OpShowDialog, A: c.str(ins.Args[0])}
	case smali.OpShowPopup:
		return Instr{Op: OpShowPopup, A: c.str(ins.Args[0])}
	case smali.OpRequireInput:
		return Instr{Op: OpRequireInput, A: c.str(apk.NormalizeRef(ins.Args[0])), B: c.str(ins.Args[1])}
	case smali.OpRequireExtra:
		return Instr{Op: OpRequireExtra, A: c.str(ins.Args[0])}
	case smali.OpCrash:
		return Instr{Op: OpCrash, A: c.str(ins.Args[0])}
	case smali.OpInvokeSensitive:
		return Instr{Op: OpInvokeSensitive, A: c.str(ins.Args[0])}
	case smali.OpLoadLibrary:
		return Instr{Op: OpInvokeSensitive, A: c.str("shell/loadLibrary")}
	case smali.OpLog:
		return Instr{Op: OpLog, A: c.str(ins.Args[0])}
	default:
		return Instr{Op: OpUnknown, A: c.str(string(ins.Op))}
	}
}

// layoutNameOf strips the "@layout/" prefix of a normalized resource ref,
// duplicating the classic interpreter's helper.
func layoutNameOf(ref string) string {
	s := apk.NormalizeRef(ref)
	const p = "@layout/"
	if len(s) > len(p) && s[:len(p)] == p {
		return s[len(p):]
	}
	return ""
}

// link builds the runtime-only tables against an app: layout widget indexes
// (with visibility paths and onClick cache sites, numbered deterministically
// after the instruction sites) and the inline-cache array. A layout's
// WidgetInfos share one slice, and their paths one backing array.
func (p *Program) link(app *apk.App) {
	k := &linker{p: p, nsites: p.instrSites + 1} // slot 0 reserved: "no cache"
	p.byPtr = make(map[*layout.Layout]*LayoutInfo, len(p.Layouts))
	for _, li := range p.Layouts {
		l := app.Layouts[li.Name]
		li.L = l
		if l == nil || l.Root == nil {
			continue
		}
		p.byPtr[l] = li
		n := l.IDRefCount()
		li.ByRef = make(map[string]*WidgetInfo, n)
		k.li = li
		k.infos = make([]WidgetInfo, 0, n)
		k.paths = make([]PathStep, 0, idPathLen(l.Root, 1))
		k.walk(l.Root)
	}
	p.sites = make([]cacheSlot, k.nsites)
}

// linker carries the state of link's walk over one layout at a time.
type linker struct {
	p  *Program
	li *LayoutInfo
	// path is the root-to-widget path of the widget being walked.
	path []PathStep
	// infos backs li.ByRef's values and paths their Path slices: both are
	// sized before the walk, so appending never moves what a map entry or
	// an earlier Path points at.
	infos  []WidgetInfo
	paths  []PathStep
	nsites int32
}

// walk indexes w and its subtree into k.li: the first pre-order widget per
// normalized ID, and every static <fragment> declaration.
func (k *linker) walk(w *layout.Widget) {
	nref := ""
	if w.IDRef != "" {
		nref = apk.NormalizeRef(w.IDRef)
	}
	k.path = append(k.path, PathStep{NRef: nref, Hidden: w.Hidden})
	if w.Type == layout.TypeFragment && w.FragmentClass != "" {
		k.li.Statics = append(k.li.Statics, StaticFragment{
			Container: nref, Class: w.FragmentClass, ClassID: k.p.ClassID(w.FragmentClass),
		})
	}
	if nref != "" {
		if _, dup := k.li.ByRef[nref]; !dup {
			start := len(k.paths)
			k.paths = append(k.paths, k.path...)
			wi := WidgetInfo{W: w, Path: k.paths[start:len(k.paths):len(k.paths)]}
			if w.OnClick != "" {
				wi.Site = k.nsites
				k.nsites++
			}
			k.infos = append(k.infos, wi)
			k.li.ByRef[nref] = &k.infos[len(k.infos)-1]
		}
	}
	for _, ch := range w.Children {
		k.walk(ch)
	}
	k.path = k.path[:len(k.path)-1]
}

// idPathLen sums the lengths of the root-to-widget paths of the widgets in
// w's subtree that carry an ID, w being at the given depth (the root at 1):
// an upper bound of what link stores, which skips repeated IDs.
func idPathLen(w *layout.Widget, depth int) int {
	n := 0
	if w.IDRef != "" {
		n = depth
	}
	for _, ch := range w.Children {
		n += idPathLen(ch, depth+1)
	}
	return n
}
