package device

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/manifest"
	"fragdroid/internal/smali"
)

// FuzzCompileExec is the differential fuzzer over the two interpreters: an
// arbitrary two-class app plus an arbitrary interaction script must produce
// the same observable outcome — per-action errors, crash state, step count,
// device log, final activity, and panic behavior — whether executed by the
// classic tree-walking interpreter or the compiled instruction IR. Each
// interpreter then runs the script again on the same device after Reset,
// which must reproduce its first outcome exactly. Inputs
// the pipeline rejects (manifest, layout, or smali parse failures) are
// skipped: both interpreters would never see them. Super-chain cycles among
// declared classes are skipped too — the classic method resolver predates
// the IR and does not terminate on them, so there is no classic outcome to
// compare against.
func FuzzCompileExec(f *testing.F) {
	const layoutA = `<LinearLayout id="@+id/root">
  <Button id="@+id/b0" onClick="onGo"/>
  <Button id="@+id/b1" onClick="onSens"/>
  <EditText id="@+id/b2"/>
  <FrameLayout id="@+id/c"/>
</LinearLayout>`
	const srcA = `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method
.method onGo()V
    get-fragment-manager
    begin-transaction
    txn-add @id/c Lt/B;
    txn-commit
.end method
.method onSens()V
    invoke-sensitive Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;
    show-dialog "are you sure?"
.end method`
	const srcB = `
.class Lt/B;
.super Landroid/app/Fragment;
.method onCreateView()V
    log attached
.end method
.method onReceive()V
    log got-event
.end method`

	f.Add(layoutA, srcA, srcB, "\x00\x01\x02\x03\x04\x05")
	// A crashing handler plus an input gate.
	f.Add(layoutA, `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method
.method onGo()V
    require-input @id/b2 secret
    crash boom
.end method
.method onSens()V
    toggle-visible @id/b0
.end method`, srcB, "\x00\x02\x00\x06")
	// An opcode the interpreters do not know: both must raise VerifyError.
	f.Add(layoutA, `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    frobnicate-quantum r0
.end method`, srcB, "\x00")
	// A receiver class with no onReceive: broadcasts crash either way.
	f.Add(layoutA, srcA, `
.class Lt/B;
.super Landroid/app/Fragment;
.method onCreateView()V
    log attached
.end method`, "\x04")
	// A super cycle: skipped, never executed.
	f.Add(layoutA, `
.class Lt/A;
.super Lt/B;
.method onCreate()V
    log a
.end method`, `
.class Lt/B;
.super Lt/A;
.method onReceive()V
    log b
.end method`, "\x04")
	// Activity without a window: UI ops must throw IllegalStateException.
	f.Add(layoutA, `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    log no-window
.end method`, srcB, "\x00\x01\x02")

	f.Fuzz(func(t *testing.T, layoutXML, classA, classB, script string) {
		app, ok := fuzzApp(layoutXML, classA, classB)
		if !ok {
			return
		}
		if hasSuperCycle(app.Program) {
			return
		}
		classic, classicAgain, cPanic := runFuzzScript(app, "classic", script)
		compiled, compiledAgain, iPanic := runFuzzScript(app, "ir", script)
		if cPanic != iPanic {
			t.Fatalf("panic divergence: classic=%q ir=%q", cPanic, iPanic)
		}
		if !reflect.DeepEqual(classic, compiled) {
			t.Fatalf("outcome divergence:\nclassic: %q\nir:      %q", classic, compiled)
		}
		if !reflect.DeepEqual(classicAgain, classic) {
			t.Fatalf("classic rerun after Reset diverged:\nfirst: %q\nagain: %q", classic, classicAgain)
		}
		if !reflect.DeepEqual(compiledAgain, compiled) {
			t.Fatalf("ir rerun after Reset diverged:\nfirst: %q\nagain: %q", compiled, compiledAgain)
		}
	})
}

// fuzzApp assembles an app from fuzz-controlled sources through the real
// pipeline; any rejection reads as "not a valid app", not a finding.
func fuzzApp(layoutXML, classA, classB string) (*apk.App, bool) {
	arch := apk.NewArchive()
	man, err := manifest.NewBuilder("t").Launcher("t.A").Activity("t.B").Build()
	if err != nil {
		return nil, false
	}
	data, err := man.Encode()
	if err != nil {
		return nil, false
	}
	if arch.Put(apk.ManifestPath, data) != nil ||
		arch.Put(apk.LayoutDir+"a.xml", []byte(layoutXML)) != nil ||
		arch.Put(apk.SmaliDir+"t/A.smali", []byte(classA)) != nil ||
		arch.Put(apk.SmaliDir+"t/B.smali", []byte(classB)) != nil {
		return nil, false
	}
	app, err := apk.Load(arch)
	if err != nil {
		return nil, false
	}
	// Register t.B as a broadcast receiver so scripts can exercise delivery.
	app.Manifest.Application.Receivers = append(app.Manifest.Application.Receivers,
		receiverDecl("t.B", "t.EVENT"))
	return app, true
}

// hasSuperCycle reports whether any declared class's super chain loops among
// declared classes (framework supers always terminate the walk).
func hasSuperCycle(p *smali.Program) bool {
	for _, name := range p.Names() {
		seen := make(map[string]bool)
		for cur := name; cur != "" && !smali.FrameworkClass(cur); {
			if seen[cur] {
				return true
			}
			seen[cur] = true
			c := p.Class(cur)
			if c == nil {
				break
			}
			cur = c.Super
		}
	}
	return false
}

// runFuzzScript executes one interaction script on a fresh device, then again
// on the same device after Reset, and renders every observable of each run
// into a canonical transcript. A panic is returned as text so the caller can
// require both interpreters to panic identically.
func runFuzzScript(app *apk.App, mode, script string) (first, again []string, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	// Depth-limited start chains still fan out exponentially under mutated
	// inputs (k starts per onCreate → k^16 executions); the step budget keeps
	// every input finite without changing which interpreter wins.
	var log logRecorder
	d := New(app, Options{Interp: mode, MaxSteps: 100_000, Hook: log.hook})
	first = playFuzzScript(d, &log, script)
	d.Reset()
	again = playFuzzScript(d, &log, script)
	return first, again, ""
}

// playFuzzScript runs one interaction script from launch and renders its
// outcome, with the lines log collected meanwhile.
func playFuzzScript(d *Device, log *logRecorder, script string) (out []string) {
	refs := []string{"@id/b0", "@id/b1", "@id/b2", "@id/c", "@id/nope"}
	out = append(out, "launch: "+errText(d.LaunchMain()))
	for _, b := range []byte(script) {
		ref := refs[int(b/7)%len(refs)]
		switch b % 7 {
		case 0:
			out = append(out, "click: "+errText(d.Click(ref)))
		case 1:
			out = append(out, "back: "+errText(d.Back()))
		case 2:
			out = append(out, "text: "+errText(d.EnterText(ref, "secret")))
		case 3:
			out = append(out, "dismiss: "+errText(d.DismissDialog()))
		case 4:
			out = append(out, "bcast: "+errText(d.Broadcast("t.EVENT")))
		case 5:
			out = append(out, "force: "+errText(d.ForceStart("t.B")))
		case 6:
			out = append(out, "reflect: "+errText(d.Reflect("t.B", "@id/c")))
		}
		if d.Crashed() {
			break
		}
	}
	cur, err := d.CurrentActivity()
	out = append(out,
		fmt.Sprintf("final: crashed=%v reason=%q steps=%d activity=%q/%s",
			d.Crashed(), d.CrashReason(), d.Steps(), cur, errText(err)),
		"log: "+strings.Join(log.take(), "\n"))
	return out
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
