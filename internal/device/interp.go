package device

import (
	"fmt"
	"slices"

	"fragdroid/internal/apk"
	"fragdroid/internal/layout"
	"fragdroid/internal/smali"
)

// execCtx is the state of one interpreted method invocation.
type execCtx struct {
	act *activityInstance
	// frag is non-nil when the executing method belongs to a live fragment.
	frag *fragmentInstance
	// class is the declaring class of the executing method.
	class string
	// depth counts nested activity starts within one UI event.
	depth int

	// intent under construction (new-intent / set-action / put-extra).
	pending *intent
	// txn records fragment operations until commit.
	txn []txnOp
}

type txnOp struct {
	op        smali.Op // OpTxnAdd, OpTxnReplace or OpTxnRemove
	container string
	fragment  string
}

// Lifecycle callback orders, hoisted so starts don't allocate the slice.
var (
	activityLifecycle = [...]string{"onCreate", "onStart", "onResume"}
	fragmentLifecycle = [...]string{"onCreateView", "onStart", "onResume"}
)

// abortMethod is the sentinel for require-input failures: the rest of the
// method is skipped but the app keeps running.
type abortMethod struct{ reason string }

func (a abortMethod) Error() string { return "method aborted: " + a.reason }

// crashError aborts interpretation and force-closes the app.
type crashError struct{ reason string }

func (c crashError) Error() string { return "crash: " + c.reason }

// startActivity resolves an intent and pushes the target activity, running
// its onCreate. Crashes (unresolvable intents, missing extras, explicit
// crash instructions, start-depth overflow) force-close the app.
func (d *Device) startActivity(it intent, depth int) error {
	if d.ir != nil {
		return d.startActivityIR(it, depth)
	}
	if depth > d.opts.MaxStartDepth {
		d.crash("ANR: activity start depth exceeded")
		return ErrCrashed
	}
	target := it.explicit
	if target == "" && it.action != "" {
		t, ok := d.app.Manifest.ActivityForAction(it.action)
		if !ok {
			d.crash(fmt.Sprintf("ActivityNotFoundException: no activity for action %q", it.action))
			return ErrCrashed
		}
		target = t
	}
	if target == "" {
		d.crash("ActivityNotFoundException: empty intent")
		return ErrCrashed
	}
	if !d.app.Manifest.HasActivity(target) {
		d.crash(fmt.Sprintf("ActivityNotFoundException: %s not declared", target))
		return ErrCrashed
	}
	inst := d.newActivity(target, it)
	d.stack = append(d.stack, inst)
	if d.opts.Hook != nil {
		d.logf("start %s", target)
	}
	// Lifecycle: onCreate, then onStart and onResume when defined. A
	// require-input abort in one callback does not suppress the next.
	for _, lifecycle := range activityLifecycle {
		m := d.methodOf(target, lifecycle)
		if m == nil {
			continue
		}
		ctx := &execCtx{act: inst, class: target, depth: depth}
		if err := d.run(ctx, m); err != nil {
			if _, ok := err.(abortMethod); ok {
				continue
			}
			return err
		}
		// A lifecycle callback may have started another activity or finished
		// this one; stop running callbacks for a backgrounded instance.
		if d.top() != inst {
			break
		}
	}
	return nil
}

// methodOf finds a method on a class, searching the superclass chain of
// application classes (framework classes contribute nothing).
func (d *Device) methodOf(class, name string) *smali.Method {
	for cur := class; cur != "" && !smali.FrameworkClass(cur); {
		c := d.app.Program.Class(cur)
		if c == nil {
			return nil
		}
		if m := c.Method(name); m != nil {
			return m
		}
		cur = c.Super
	}
	return nil
}

// invoke runs a handler method in the context of the foreground activity.
// The declaring class determines fragment attribution: if class is a live
// fragment's class, the method executes in that fragment's context.
func (d *Device) invoke(t *activityInstance, class, method string) error {
	m := d.methodOf(class, method)
	if m == nil {
		d.crash(fmt.Sprintf("NoSuchMethodException: %s.%s", class, method))
		return ErrCrashed
	}
	ctx := &execCtx{act: t, frag: t.fragmentOf(class), class: class}
	err := d.run(ctx, m)
	if _, ok := err.(abortMethod); ok {
		return nil
	}
	return err
}

// run interprets a method body.
func (d *Device) run(ctx *execCtx, m *smali.Method) error {
	for _, ins := range m.Body {
		if d.crashed {
			return ErrCrashed
		}
		if d.opts.MaxSteps > 0 && d.steps >= d.opts.MaxSteps {
			d.crash("ANR: step budget exhausted")
			return ErrCrashed
		}
		d.steps++
		if err := d.exec(ctx, ins); err != nil {
			if c, ok := err.(crashError); ok {
				d.crash(c.reason)
				return ErrCrashed
			}
			return err
		}
	}
	return nil
}

// uiOps require an attached activity context; running them in a
// BroadcastReceiver (which has no window) force-closes the app.
var uiOps = map[smali.Op]bool{
	smali.OpSetContentView: true, smali.OpSetClickListener: true,
	smali.OpToggleVisible: true, smali.OpSetText: true,
	smali.OpBeginTransaction: true, smali.OpTxnAdd: true,
	smali.OpTxnReplace: true, smali.OpTxnRemove: true, smali.OpTxnCommit: true,
	smali.OpInflateView: true, smali.OpShowDialog: true, smali.OpShowPopup: true,
	smali.OpRequireInput: true, smali.OpRequireExtra: true, smali.OpFinish: true,
	smali.OpGetFragmentManager: true, smali.OpGetSupportFragmentManager: true,
}

func (d *Device) exec(ctx *execCtx, ins smali.Instr) error {
	t := ctx.act
	if t == nil && uiOps[ins.Op] {
		return crashError{fmt.Sprintf("IllegalStateException: %s in a component without a window (%s)",
			ins.Op, ctx.class)}
	}
	switch ins.Op {
	case smali.OpSetContentView:
		name := layoutNameOf(ins.Args[0])
		l := d.app.Layouts[name]
		if l == nil {
			return crashError{fmt.Sprintf("InflateException: missing layout %s", name)}
		}
		// Layout trees are immutable at runtime (all mutable widget state
		// lives in the activity's override maps), so the installed tree is
		// attached directly — no per-setContentView deep copy.
		if ctx.frag != nil {
			ctx.frag.content = l
		} else {
			t.content = l
		}
		// Static <fragment> declarations attach on inflation, managed by the
		// FragmentManager like real static fragments. Fragment layouts may
		// declare children too (child fragment managers); both land in the
		// host activity's fragment table, keyed by the tag's own ID.
		var err error
		l.Walk(func(w *layout.Widget) bool {
			if w.Type == layout.TypeFragment && w.FragmentClass != "" {
				if ctx.frag != nil && w.FragmentClass == ctx.frag.class {
					// A fragment must not statically re-declare itself.
					err = crashError{fmt.Sprintf("StackOverflowError: %s inflates itself", w.FragmentClass)}
					return false
				}
				if e := d.commitFragment(t, apk.NormalizeRef(w.IDRef), w.FragmentClass, true); e != nil {
					err = e
					return false
				}
			}
			return true
		})
		if err != nil {
			return err
		}

	case smali.OpSetClickListener:
		ref := apk.NormalizeRef(ins.Args[0])
		h := handlerRef{class: ctx.class, method: ins.Args[1]}
		if ctx.frag != nil {
			ctx.frag.setListener(ref, h)
		} else {
			t.setListener(ref, h)
		}

	case smali.OpToggleVisible:
		ref := apk.NormalizeRef(ins.Args[0])
		w, _, vis, ok := d.findWidget(t, ref)
		if !ok {
			return crashError{fmt.Sprintf("NullPointerException: findViewById(%s)", ins.Args[0])}
		}
		_ = w
		t.setVisible(ref, !vis)
		if d.opts.Hook != nil {
			d.logf("visibility of %s -> %v", ref, !vis)
		}

	case smali.OpSetText:
		t.setText(apk.NormalizeRef(ins.Args[0]), ins.Args[1])

	case smali.OpNewIntent, smali.OpSetClass:
		ctx.pending = &intent{explicit: ins.Args[1]}
	case smali.OpNewIntentAction, smali.OpSetAction:
		ctx.pending = &intent{action: ins.Args[0]}
	case smali.OpPutExtra:
		if ctx.pending == nil {
			return crashError{"NullPointerException: putExtra on null intent"}
		}
		if ctx.pending.extras == nil {
			ctx.pending.extras = make(map[string]string)
		}
		ctx.pending.extras[ins.Args[0]] = ins.Args[1]
	case smali.OpStartActivity:
		if ctx.pending == nil {
			return crashError{"NullPointerException: startActivity(null)"}
		}
		it := *ctx.pending
		ctx.pending = nil
		return d.startActivity(it, ctx.depth+1)

	case smali.OpSendBroadcast:
		return d.deliverBroadcast(ins.Args[0], ctx.depth+1)

	case smali.OpFinish:
		if len(d.stack) > 0 && d.stack[len(d.stack)-1] == t {
			d.stack = d.stack[:len(d.stack)-1]
			if d.opts.Hook != nil {
				d.logf("finish %s", t.class)
			}
		}

	case smali.OpGetFragmentManager, smali.OpGetSupportFragmentManager:
		// Obtaining the manager has no direct effect; its presence in code is
		// what static analysis and the reflection precondition care about.

	case smali.OpBeginTransaction:
		ctx.txn = ctx.txn[:0]

	case smali.OpTxnAdd, smali.OpTxnReplace:
		ctx.txn = append(ctx.txn, txnOp{
			op:        ins.Op,
			container: apk.NormalizeRef(ins.Args[0]),
			fragment:  ins.Args[1],
		})
	case smali.OpTxnRemove:
		ctx.txn = append(ctx.txn, txnOp{op: ins.Op, fragment: ins.Args[0]})
	case smali.OpTxnCommit:
		ops := ctx.txn
		ctx.txn = nil
		for _, op := range ops {
			switch op.op {
			case smali.OpTxnAdd, smali.OpTxnReplace:
				if err := d.commitFragment(t, op.container, op.fragment, true); err != nil {
					return err
				}
			case smali.OpTxnRemove:
				d.removeFragment(t, op.fragment)
			}
		}

	case smali.OpInflateView:
		// Direct fragment loading without a FragmentManager: the view
		// appears, but instrumentation cannot confirm the fragment.
		return d.commitFragment(t, apk.NormalizeRef(ins.Args[0]), ins.Args[1], false)

	case smali.OpNewInstance, smali.OpInvokeNewIn, smali.OpInstanceOf:
		// Pure allocation/type checks: no UI effect.

	case smali.OpShowDialog:
		t.dialog = &dialog{text: ins.Args[0]}
		if d.opts.Hook != nil {
			d.logf("dialog %q", ins.Args[0])
		}
	case smali.OpShowPopup:
		t.dialog = &dialog{text: ins.Args[0], popup: true}
		if d.opts.Hook != nil {
			d.logf("popup %q", ins.Args[0])
		}

	case smali.OpRequireInput:
		ref := apk.NormalizeRef(ins.Args[0])
		if t.texts[ref] != ins.Args[1] {
			t.dialog = &dialog{text: "Invalid input"}
			if d.opts.Hook != nil {
				d.logf("require-input %s failed", ref)
			}
			return abortMethod{fmt.Sprintf("input %s mismatch", ref)}
		}
	case smali.OpRequireExtra:
		if !t.intent.has(ins.Args[0]) {
			return crashError{fmt.Sprintf("RuntimeException: missing required extra %q", ins.Args[0])}
		}
	case smali.OpCrash:
		return crashError{ins.Args[0]}

	case smali.OpInvokeSensitive:
		d.emitSensitive(ctx, ins.Args[0])
	case smali.OpLoadLibrary:
		d.emitSensitive(ctx, "shell/loadLibrary")

	case smali.OpLog:
		if d.opts.Hook != nil {
			d.logf("app log: %s", ins.Args[0])
		}
	case smali.OpNop:
		// nothing
	default:
		return crashError{fmt.Sprintf("VerifyError: unhandled opcode %s", ins.Op)}
	}
	return nil
}

func (d *Device) emitSensitive(ctx *execCtx, api string) {
	if d.opts.Monitor == nil {
		return
	}
	activity := ""
	if ctx.act != nil {
		activity = ctx.act.class
	}
	d.opts.Monitor(SensitiveEvent{
		API:        api,
		Class:      ctx.class,
		InFragment: d.app.Program.IsFragmentClass(ctx.class),
		Activity:   activity,
	})
}

// deliverBroadcast runs the onReceive of every manifest receiver subscribed
// to the action, in declaration order. Receivers run without a UI context;
// they may start activities and invoke sensitive APIs.
func (d *Device) deliverBroadcast(action string, depth int) error {
	if d.ir != nil {
		return d.deliverBroadcastIR(action, depth)
	}
	if depth > d.opts.MaxStartDepth {
		d.crash("ANR: broadcast depth exceeded")
		return ErrCrashed
	}
	receivers := d.app.Manifest.ReceiversFor(action)
	if d.opts.Hook != nil {
		d.logf("broadcast %s -> %d receivers", action, len(receivers))
	}
	for _, cls := range receivers {
		m := d.methodOf(cls, "onReceive")
		if m == nil {
			d.crash(fmt.Sprintf("NoSuchMethodException: %s.onReceive", cls))
			return ErrCrashed
		}
		ctx := &execCtx{class: cls, depth: depth}
		if err := d.run(ctx, m); err != nil {
			if _, ok := err.(abortMethod); ok {
				continue
			}
			return err
		}
	}
	return nil
}

// Broadcast injects a system or app broadcast from the outside (`adb shell
// am broadcast -a <action>`) — the system-event channel Dynodroid-style
// testers exercise alongside UI events (§IX).
func (d *Device) Broadcast(action string) error {
	if d.crashed {
		return ErrCrashed
	}
	d.steps++
	return d.deliverBroadcast(action, 0)
}

// commitFragment instantiates a fragment into a container, running its
// onCreateView in fragment context.
func (d *Device) commitFragment(t *activityInstance, container, fragment string, viaFM bool) error {
	if d.ir != nil {
		return d.commitFragmentIR(t, container, fragment, d.ir.ClassID(fragment), viaFM)
	}
	fc := d.app.Program.Class(fragment)
	if fc == nil {
		return crashError{fmt.Sprintf("ClassNotFoundException: %s", fragment)}
	}
	f := d.attachFragment(t, fragment, container, viaFM)
	if d.opts.Hook != nil {
		d.logf("fragment %s -> %s (viaFM=%v)", fragment, container, viaFM)
	}
	for _, lifecycle := range fragmentLifecycle {
		m := d.methodOf(fragment, lifecycle)
		if m == nil {
			continue
		}
		ctx := &execCtx{act: t, frag: f, class: fragment}
		if err := d.run(ctx, m); err != nil {
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

// removeFragment detaches the first live fragment of the given class.
func (d *Device) removeFragment(t *activityInstance, fragment string) {
	for i, f := range t.frags {
		if f.class == fragment {
			t.frags = slices.Delete(t.frags, i, i+1)
			if d.opts.Hook != nil {
				d.log("fragment " + fragment + " removed from " + f.container)
			}
			return
		}
	}
}

func layoutNameOf(ref string) string {
	s := apk.NormalizeRef(ref)
	const p = "@layout/"
	if len(s) > len(p) && s[:len(p)] == p {
		return s[len(p):]
	}
	return ""
}
