package device

import (
	"slices"
	"strconv"
	"sync"

	"fragdroid/internal/ir"
	"fragdroid/internal/layout"
)

// This file is the IR fast path: the same observable semantics as interp.go
// (same log lines, same crash messages, same step accounting, byte for
// byte — pinned by the golden transcripts and the differential corpus test),
// executed over the precompiled ir.Program instead of parsed smali. Numeric
// opcodes dispatch through one dense switch, operands arrive pre-resolved
// and interned, frames are pooled, and virtual dispatch goes through
// monomorphic inline caches.

// irFrame is the register frame of one method activation on the IR path —
// the pooled counterpart of execCtx.
type irFrame struct {
	act  *activityInstance
	frag *fragmentInstance
	// classID is the dynamic receiver class (the started/registered class,
	// not the declaring class of an inherited body).
	classID int32
	depth   int

	// pending intent under construction, held by value; the extras map is
	// allocated on demand and moves into the started activity.
	hasPending bool
	pending    intent
	// txn records fragment operations until commit; the backing array is
	// recycled with the frame.
	txn []irTxn
}

type irTxn struct {
	op                  ir.Opcode
	container, fragment string
	classID             int32
}

var framePool = sync.Pool{New: func() any { return new(irFrame) }}

func getFrame(act *activityInstance, frag *fragmentInstance, classID int32, depth int) *irFrame {
	f := framePool.Get().(*irFrame)
	f.act, f.frag, f.classID, f.depth = act, frag, classID, depth
	return f
}

func putFrame(f *irFrame) {
	f.act, f.frag = nil, nil
	f.hasPending = false
	f.pending = intent{}
	f.txn = f.txn[:0]
	framePool.Put(f)
}

// runIR interprets a compiled method body. Step accounting and the crashed
// check replicate the classic run loop exactly: check, count, execute.
func (d *Device) runIR(f *irFrame, mi int32) error {
	p := d.ir
	m := &p.Methods[mi]
	code := p.Code[m.Off:m.End]
	for i := range code {
		if d.crashed {
			return ErrCrashed
		}
		if d.opts.MaxSteps > 0 && d.steps >= d.opts.MaxSteps {
			d.crash("ANR: step budget exhausted")
			return ErrCrashed
		}
		d.steps++
		ins := &code[i]
		op := ins.Op
		t := f.act
		if t == nil && op.UIGated() {
			d.crash("IllegalStateException: " + op.Name() + " in a component without a window (" + p.Classes[f.classID].Name + ")")
			return ErrCrashed
		}
		switch op {
		case ir.OpSetContentView:
			var li *ir.LayoutInfo
			if ins.A >= 0 {
				li = p.Layouts[ins.A]
			}
			if li == nil || li.L == nil {
				d.crash("InflateException: missing layout " + p.Strings[ins.B])
				return ErrCrashed
			}
			if f.frag != nil {
				f.frag.content = li.L
			} else {
				t.content = li.L
			}
			for si := range li.Statics {
				s := &li.Statics[si]
				if f.frag != nil && s.Class == f.frag.class {
					d.crash("StackOverflowError: " + s.Class + " inflates itself")
					return ErrCrashed
				}
				if err := d.commitFragmentIR(t, s.Container, s.Class, s.ClassID, true); err != nil {
					return err
				}
			}

		case ir.OpSetClickListener:
			h := handlerRef{class: p.Classes[f.classID].Name, method: p.Strings[ins.B], site: ins.C}
			if f.frag != nil {
				f.frag.setListener(p.Strings[ins.A], h)
			} else {
				t.setListener(p.Strings[ins.A], h)
			}

		case ir.OpToggleVisible:
			ref := p.Strings[ins.A]
			_, _, vis, ok := d.findWidgetIR(t, ref)
			if !ok {
				d.crash("NullPointerException: findViewById(" + p.Strings[ins.B] + ")")
				return ErrCrashed
			}
			t.setVisible(ref, !vis)
			if d.opts.Hook != nil {
				d.log("visibility of " + ref + " -> " + strconv.FormatBool(!vis))
			}

		case ir.OpSetText:
			t.setText(p.Strings[ins.A], p.Strings[ins.B])

		case ir.OpNewIntent:
			f.pending = intent{explicit: p.Strings[ins.A]}
			f.hasPending = true
		case ir.OpNewIntentAction:
			f.pending = intent{action: p.Strings[ins.A]}
			f.hasPending = true
		case ir.OpPutExtra:
			if !f.hasPending {
				d.crash("NullPointerException: putExtra on null intent")
				return ErrCrashed
			}
			if f.pending.extras == nil {
				f.pending.extras = make(map[string]string)
			}
			f.pending.extras[p.Strings[ins.A]] = p.Strings[ins.B]
		case ir.OpStartActivity:
			if !f.hasPending {
				d.crash("NullPointerException: startActivity(null)")
				return ErrCrashed
			}
			it := f.pending
			f.hasPending = false
			f.pending = intent{}
			if err := d.startActivityIR(it, f.depth+1); err != nil {
				return err
			}

		case ir.OpSendBroadcast:
			if err := d.deliverBroadcastIR(p.Strings[ins.A], f.depth+1); err != nil {
				return err
			}

		case ir.OpFinish:
			if len(d.stack) > 0 && d.stack[len(d.stack)-1] == t {
				d.stack = d.stack[:len(d.stack)-1]
				if d.opts.Hook != nil {
					d.log("finish " + t.class)
				}
			}

		case ir.OpGetFragmentManager, ir.OpGetSupportFragmentManager:
			// Presence-only ops: static analysis and the reflection
			// precondition care, execution does not.

		case ir.OpBeginTransaction:
			f.txn = f.txn[:0]

		case ir.OpTxnAdd, ir.OpTxnReplace:
			f.txn = append(f.txn, irTxn{op: op, container: p.Strings[ins.A], fragment: p.Strings[ins.B], classID: ins.C})
		case ir.OpTxnRemove:
			f.txn = append(f.txn, irTxn{op: op, fragment: p.Strings[ins.A]})
		case ir.OpTxnCommit:
			ops := f.txn
			for oi := range ops {
				o := &ops[oi]
				if o.op == ir.OpTxnRemove {
					d.removeFragment(t, o.fragment)
					continue
				}
				if err := d.commitFragmentIR(t, o.container, o.fragment, o.classID, true); err != nil {
					return err
				}
			}
			f.txn = f.txn[:0]

		case ir.OpInflateView:
			if err := d.commitFragmentIR(t, p.Strings[ins.A], p.Strings[ins.B], ins.C, false); err != nil {
				return err
			}

		case ir.OpPure:
			// Allocation/type checks and nop: no UI effect.

		case ir.OpShowDialog:
			t.dialog = &dialog{text: p.Strings[ins.A]}
			if d.opts.Hook != nil {
				d.log("dialog " + strconv.Quote(p.Strings[ins.A]))
			}
		case ir.OpShowPopup:
			t.dialog = &dialog{text: p.Strings[ins.A], popup: true}
			if d.opts.Hook != nil {
				d.log("popup " + strconv.Quote(p.Strings[ins.A]))
			}

		case ir.OpRequireInput:
			ref := p.Strings[ins.A]
			if t.texts[ref] != p.Strings[ins.B] {
				t.dialog = &dialog{text: "Invalid input"}
				if d.opts.Hook != nil {
					d.log("require-input " + ref + " failed")
				}
				return abortMethod{"input " + ref + " mismatch"}
			}
		case ir.OpRequireExtra:
			if !t.intent.has(p.Strings[ins.A]) {
				d.crash("RuntimeException: missing required extra " + strconv.Quote(p.Strings[ins.A]))
				return ErrCrashed
			}
		case ir.OpCrash:
			d.crash(p.Strings[ins.A])
			return ErrCrashed

		case ir.OpInvokeSensitive:
			d.emitSensitiveIR(t, f.classID, p.Strings[ins.A])

		case ir.OpLog:
			if d.opts.Hook != nil {
				d.log("app log: " + p.Strings[ins.A])
			}

		default: // ir.OpUnknown
			d.crash("VerifyError: unhandled opcode " + p.Strings[ins.A])
			return ErrCrashed
		}
	}
	return nil
}

// startActivityIR is startActivity over compiled lifecycle vtables.
func (d *Device) startActivityIR(it intent, depth int) error {
	if depth > d.opts.MaxStartDepth {
		d.crash("ANR: activity start depth exceeded")
		return ErrCrashed
	}
	target := it.explicit
	if target == "" && it.action != "" {
		t, ok := d.app.Manifest.ActivityForAction(it.action)
		if !ok {
			d.crash("ActivityNotFoundException: no activity for action " + strconv.Quote(it.action))
			return ErrCrashed
		}
		target = t
	}
	if target == "" {
		d.crash("ActivityNotFoundException: empty intent")
		return ErrCrashed
	}
	if !d.app.Manifest.HasActivity(target) {
		d.crash("ActivityNotFoundException: " + target + " not declared")
		return ErrCrashed
	}
	inst := d.newActivity(target, it)
	d.stack = append(d.stack, inst)
	if d.opts.Hook != nil {
		d.log("start " + target)
	}
	p := d.ir
	if ci := p.ClassID(target); ci >= 0 {
		cls := &p.Classes[ci]
		for k := range cls.ActLife {
			mi := cls.ActLife[k]
			if mi < 0 {
				continue
			}
			f := getFrame(inst, nil, ci, depth)
			err := d.runIR(f, mi)
			putFrame(f)
			if err != nil {
				if _, ok := err.(abortMethod); ok {
					continue
				}
				return err
			}
			if d.top() != inst {
				break
			}
		}
	}
	return nil
}

// invokeIR runs a handler through the call site's inline cache, falling back
// to the full superclass walk on miss and caching the result. A site of 0
// (classic-registered handlers) means "no cache".
func (d *Device) invokeIR(t *activityInstance, h handlerRef) error {
	p := d.ir
	mi := int32(-1)
	ci := p.ClassID(h.class)
	if ci >= 0 {
		if h.site > 0 {
			mi = p.ICLoad(h.site, ci)
		}
		if mi < 0 {
			mi = p.Resolve(ci, h.method)
			if mi >= 0 && h.site > 0 {
				p.ICStore(h.site, ci, mi)
			}
		}
	}
	if mi < 0 {
		d.crash("NoSuchMethodException: " + h.class + "." + h.method)
		return ErrCrashed
	}
	f := getFrame(t, t.fragmentOf(h.class), ci, 0)
	err := d.runIR(f, mi)
	putFrame(f)
	if _, ok := err.(abortMethod); ok {
		return nil
	}
	return err
}

// deliverBroadcastIR is deliverBroadcast over the compiled onReceive vtable.
func (d *Device) deliverBroadcastIR(action string, depth int) error {
	if depth > d.opts.MaxStartDepth {
		d.crash("ANR: broadcast depth exceeded")
		return ErrCrashed
	}
	p := d.ir
	receivers := d.app.Manifest.ReceiversFor(action)
	if d.opts.Hook != nil {
		d.log("broadcast " + action + " -> " + strconv.Itoa(len(receivers)) + " receivers")
	}
	for _, cls := range receivers {
		mi := int32(-1)
		ci := p.ClassID(cls)
		if ci >= 0 {
			mi = p.Classes[ci].OnReceive
		}
		if mi < 0 {
			d.crash("NoSuchMethodException: " + cls + ".onReceive")
			return ErrCrashed
		}
		f := getFrame(nil, nil, ci, depth)
		err := d.runIR(f, mi)
		putFrame(f)
		if err != nil {
			if _, ok := err.(abortMethod); ok {
				continue
			}
			return err
		}
	}
	return nil
}

// commitFragmentIR is commitFragment with the fragment class pre-resolved.
func (d *Device) commitFragmentIR(t *activityInstance, container, fragment string, classID int32, viaFM bool) error {
	if classID < 0 {
		d.crash("ClassNotFoundException: " + fragment)
		return ErrCrashed
	}
	f := d.attachFragment(t, fragment, container, viaFM)
	if d.opts.Hook != nil {
		d.log("fragment " + fragment + " -> " + container + " (viaFM=" + strconv.FormatBool(viaFM) + ")")
	}
	p := d.ir
	cls := &p.Classes[classID]
	for k := range cls.FragLife {
		mi := cls.FragLife[k]
		if mi < 0 {
			continue
		}
		fr := getFrame(t, f, classID, 0)
		err := d.runIR(fr, mi)
		putFrame(fr)
		if err != nil {
			if _, ok := err.(abortMethod); ok {
				continue
			}
			return err
		}
		if !slices.Contains(t.frags, f) {
			break // replaced or removed by its own callback
		}
	}
	return nil
}

// emitSensitiveIR is emitSensitive with the fragment flag read off the
// compiled class instead of re-walking the superclass chain per emission.
func (d *Device) emitSensitiveIR(act *activityInstance, classID int32, api string) {
	if d.opts.Monitor == nil {
		return
	}
	activity := ""
	if act != nil {
		activity = act.class
	}
	c := &d.ir.Classes[classID]
	d.opts.Monitor(SensitiveEvent{API: api, Class: c.Name, InFragment: c.IsFragment, Activity: activity})
}

// findWidgetIR is findWidget over the per-layout widget index: a map hit plus
// a precomputed-path visibility walk instead of a recursive tree search. For
// layout trees the program was not linked against (possible only through
// unusual app rebinding) it falls back to the classic tree walk — including
// that path's behaviour when the activity has no content.
func (d *Device) findWidgetIR(t *activityInstance, nref string) (*layout.Widget, widgetOwner, bool, bool) {
	p := d.ir
	if t.content != nil {
		if li := p.LayoutFor(t.content); li != nil {
			if wi := li.ByRef[nref]; wi != nil {
				return wi.W, widgetOwner{site: wi.Site}, pathVisible(wi.Path, t.visible), true
			}
		} else if w, vis, ok := findInTree(t.content, nref, t.visible); ok {
			return w, widgetOwner{}, vis, true
		}
	}
	for _, f := range t.frags {
		if f.content == nil {
			continue
		}
		var w *layout.Widget
		var vis, ok bool
		var site int32
		if li := p.LayoutFor(f.content); li != nil {
			if wi := li.ByRef[nref]; wi != nil {
				w, vis, site, ok = wi.W, pathVisible(wi.Path, t.visible), wi.Site, true
			}
		} else {
			w, vis, ok = findInTree(f.content, nref, t.visible)
		}
		if !ok {
			continue
		}
		// A fragment's widgets are visible only if its container is.
		if cli := p.LayoutFor(t.content); cli != nil {
			if ci := cli.ByRef[f.container]; ci != nil {
				vis = vis && pathVisible(ci.Path, t.visible)
			}
		} else if _, cvis, cok := findInTree(t.content, f.container, t.visible); cok {
			vis = vis && cvis
		}
		return w, widgetOwner{fragment: f, site: site}, vis, true
	}
	return nil, widgetOwner{}, false, false
}

// pathVisible computes effective visibility along a precomputed root-to-self
// path: an override wins where present, else the static Hidden flag.
func pathVisible(path []ir.PathStep, overrides map[string]bool) bool {
	for i := range path {
		s := &path[i]
		if s.NRef != "" {
			if v, ok := overrides[s.NRef]; ok {
				if !v {
					return false
				}
				continue
			}
		}
		if s.Hidden {
			return false
		}
	}
	return true
}
