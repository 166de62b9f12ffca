// Package robotium models FragDroid's test cases: small scripts of UI
// operations that the test-case-generation module emits and an
// instrumentation runner executes on the device (§VI-B: "the template of
// test case based on the library of Robotium is accomplished with the
// information inside the items"). Scripts can be rendered as pseudo-Java
// Robotium test programs, mirroring the artifacts the paper's pipeline
// packages into the target app with Ant.
package robotium

import (
	"fmt"
	"strings"

	"fragdroid/internal/device"
)

// OpKind enumerates script operations.
type OpKind int

const (
	// OpLaunchMain launches the app's MAIN/LAUNCHER activity.
	OpLaunchMain OpKind = iota + 1
	// OpForceStart force-starts a specific activity with an empty intent.
	OpForceStart
	// OpClick clicks a widget.
	OpClick
	// OpEnterText types Value into a widget.
	OpEnterText
	// OpDismissDialog clicks blank space to close a dialog or popup.
	OpDismissDialog
	// OpBack presses the BACK key.
	OpBack
	// OpReflect performs the reflective fragment switch.
	OpReflect
)

// Op is one script operation.
type Op struct {
	Kind OpKind
	// Ref addresses the widget for OpClick/OpEnterText.
	Ref string
	// Value is the text for OpEnterText.
	Value string
	// Activity is the target for OpForceStart.
	Activity string
	// Fragment and Container parameterize OpReflect.
	Fragment  string
	Container string
}

// String renders the op compactly.
func (o Op) String() string {
	switch o.Kind {
	case OpLaunchMain:
		return "launch-main"
	case OpForceStart:
		return "force-start " + o.Activity
	case OpClick:
		return "click " + o.Ref
	case OpEnterText:
		return fmt.Sprintf("enter %s %q", o.Ref, o.Value)
	case OpDismissDialog:
		return "dismiss-dialog"
	case OpBack:
		return "back"
	case OpReflect:
		return fmt.Sprintf("reflect %s into %s", o.Fragment, o.Container)
	default:
		return fmt.Sprintf("op(%d)", int(o.Kind))
	}
}

// Convenience constructors.
func LaunchMain() Op                { return Op{Kind: OpLaunchMain} }
func ForceStart(activity string) Op { return Op{Kind: OpForceStart, Activity: activity} }
func Click(ref string) Op           { return Op{Kind: OpClick, Ref: ref} }
func EnterText(ref, v string) Op    { return Op{Kind: OpEnterText, Ref: ref, Value: v} }
func DismissDialog() Op             { return Op{Kind: OpDismissDialog} }
func Back() Op                      { return Op{Kind: OpBack} }
func Reflect(frag, container string) Op {
	return Op{Kind: OpReflect, Fragment: frag, Container: container}
}

// Script is one generated test case.
type Script struct {
	// Name identifies the test case (shows up in logs and renders).
	Name string
	Ops  []Op
}

// Append returns a copy of the script with extra ops, preserving the
// original (queue items extend their parents' operation lists).
func (s Script) Append(name string, ops ...Op) Script {
	ns := Script{Name: name, Ops: make([]Op, 0, len(s.Ops)+len(ops))}
	ns.Ops = append(ns.Ops, s.Ops...)
	ns.Ops = append(ns.Ops, ops...)
	return ns
}

// Result reports a script execution.
type Result struct {
	// Executed counts ops that ran without error.
	Executed int
	// Err is the first failure, nil on full success.
	Err error
	// FailedOp is the op that failed (zero value when Err is nil).
	FailedOp Op
	// Crashed reports whether the app force-closed during the run.
	Crashed bool
	// CrashReason carries the FC message.
	CrashReason string
}

// Options tune the runner.
type Options struct {
	// AutoDismiss closes dialogs before each op, like a test harness that
	// clears popups to keep the script on track (§VI-A Case 3).
	AutoDismiss bool
	// Observe, when set, is called after each attempted operation with its
	// outcome — the trace hook an exploration session uses to record per-op
	// events. The error is the op's failure, nil on success.
	Observe func(op Op, err error)
}

// Run executes the script on a device, stopping at the first failure.
func Run(d *device.Device, s Script, opts Options) Result {
	var res Result
	for _, op := range s.Ops {
		if opts.AutoDismiss && d.HasDialog() && op.Kind != OpDismissDialog {
			if err := d.DismissDialog(); err != nil {
				return fail(d, res, op, err)
			}
		}
		var err error
		switch op.Kind {
		case OpLaunchMain:
			err = d.LaunchMain()
		case OpForceStart:
			err = d.ForceStart(op.Activity)
		case OpClick:
			err = d.Click(op.Ref)
		case OpEnterText:
			err = d.EnterText(op.Ref, op.Value)
		case OpDismissDialog:
			err = d.DismissDialog()
		case OpBack:
			err = d.Back()
		case OpReflect:
			err = d.Reflect(op.Fragment, op.Container)
		default:
			err = fmt.Errorf("robotium: unknown op kind %d", int(op.Kind))
		}
		if opts.Observe != nil {
			opts.Observe(op, err)
		}
		if err != nil {
			return fail(d, res, op, err)
		}
		res.Executed++
	}
	res.Crashed = d.Crashed()
	res.CrashReason = d.CrashReason()
	return res
}

func fail(d *device.Device, res Result, op Op, err error) Result {
	res.Err = err
	res.FailedOp = op
	res.Crashed = d.Crashed()
	res.CrashReason = d.CrashReason()
	return res
}

// RenderJava renders the script as the pseudo-Java Robotium test program the
// paper's pipeline would package into the app.
func RenderJava(s Script) string {
	var b strings.Builder
	name := s.Name
	if name == "" {
		name = "GeneratedTest"
	}
	fmt.Fprintf(&b, "public class %s extends ActivityInstrumentationTestCase2 {\n", sanitizeIdent(name))
	b.WriteString("    private Solo solo;\n\n")
	b.WriteString("    public void testRun() throws Exception {\n")
	for _, op := range s.Ops {
		switch op.Kind {
		case OpLaunchMain:
			b.WriteString("        solo = new Solo(getInstrumentation(), getActivity());\n")
		case OpForceStart:
			fmt.Fprintf(&b, "        runShellCommand(\"am start -n %s\");\n", op.Activity)
		case OpClick:
			fmt.Fprintf(&b, "        solo.clickOnView(solo.getView(%s));\n", ridJava(op.Ref))
		case OpEnterText:
			fmt.Fprintf(&b, "        solo.enterText((EditText) solo.getView(%s), %q);\n", ridJava(op.Ref), op.Value)
		case OpDismissDialog:
			b.WriteString("        solo.clickOnScreen(10, 10); // dismiss dialog\n")
		case OpBack:
			b.WriteString("        solo.goBack();\n")
		case OpReflect:
			fmt.Fprintf(&b, "        ReflectionSwitcher.commit(solo.getCurrentActivity(), %q, %s);\n",
				op.Fragment, ridJava(op.Container))
		}
	}
	b.WriteString("    }\n}\n")
	return b.String()
}

func ridJava(ref string) string {
	s := strings.TrimPrefix(strings.TrimPrefix(ref, "@+"), "@")
	return "R." + strings.ReplaceAll(s, "/", ".")
}

func sanitizeIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "GeneratedTest"
	}
	return b.String()
}
