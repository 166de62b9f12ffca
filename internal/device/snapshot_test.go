package device

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fragdroid/internal/corpus"
)

// snapState is the externally observable device state used by the parity
// assertions below. events holds the log lines the device's Hook received
// since its previous observation.
type snapState struct {
	activity string
	dump     UIDump
	steps    int
	events   []string
	crashed  bool
	reason   string
}

// observeState observes d; log is the recorder on d's Hook, nil for a device
// without one.
func observeState(t *testing.T, d *Device, log *logRecorder) snapState {
	t.Helper()
	st := snapState{steps: d.Steps(), crashed: d.Crashed(), reason: d.CrashReason()}
	if log != nil {
		st.events = log.take()
	}
	if d.Running() {
		var err error
		if st.activity, err = d.CurrentActivity(); err != nil {
			t.Fatalf("CurrentActivity: %v", err)
		}
		if st.dump, err = d.Dump(); err != nil {
			t.Fatalf("Dump: %v", err)
		}
	}
	return st
}

func requireEqualState(t *testing.T, got, want snapState) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("device states diverged:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestSnapshotRestoreRoundTrip pins the tentpole guarantee: restoring a
// snapshot onto a fresh device yields a state observationally identical to
// re-executing the captured route — same screen, same step count — without
// re-emitting the captured run's log, and subsequent interaction behaves
// and logs identically on both.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	var srcLog, dstLog logRecorder
	src := demoDevice(t, Options{Hook: srcLog.hook})
	launch(t, src)
	if err := src.Click(corpus.NavButtonRef("Main", "Detail")); err != nil {
		t.Fatal(err)
	}
	if err := src.Click(corpus.DrawerToggleRef("Detail")); err != nil {
		t.Fatal(err)
	}
	snap := src.Snapshot()
	if snap.Steps() != src.Steps() {
		t.Fatalf("snapshot steps = %d, device steps = %d", snap.Steps(), src.Steps())
	}
	want := observeState(t, src, &srcLog)
	want.events = nil // a restore re-emits none of the captured run's lines

	dst := New(src.App(), Options{Hook: dstLog.hook})
	if err := dst.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	requireEqualState(t, observeState(t, dst, &dstLog), want)
	if dst.RestoredSteps() != snap.Steps() || dst.ExecutedSteps() != 0 {
		t.Fatalf("restored/executed = %d/%d, want %d/0",
			dst.RestoredSteps(), dst.ExecutedSteps(), snap.Steps())
	}

	// The revealed drawer entry must work on the restored device exactly as
	// on the original (overrides and listeners survived the copy).
	for _, d := range []*Device{src, dst} {
		if err := d.Click(corpus.MenuButtonRef("Detail", "Settings")); err != nil {
			t.Fatalf("menu click after restore: %v", err)
		}
	}
	requireEqualState(t, observeState(t, dst, &dstLog), observeState(t, src, &srcLog))
}

// TestSnapshotIsImmutable pins copy-on-write isolation in both directions:
// mutating the source device after capture does not leak into the snapshot,
// and mutating a restored device does not leak back into it.
func TestSnapshotIsImmutable(t *testing.T) {
	src := demoDevice(t, Options{})
	launch(t, src)
	snap := src.Snapshot()
	want := observeState(t, src, nil)

	// Mutate the source: switch tabs, then navigate away.
	if err := src.Click(corpus.TabButtonRef("Main", "Recent")); err != nil {
		t.Fatal(err)
	}
	if err := src.Click(corpus.NavButtonRef("Main", "Detail")); err != nil {
		t.Fatal(err)
	}

	one := New(src.App(), Options{})
	if err := one.Restore(snap); err != nil {
		t.Fatal(err)
	}
	requireEqualState(t, observeState(t, one, nil), want)

	// Mutate the first restored device, then seed a second from the same
	// snapshot: it must still observe the capture-time state.
	if err := one.Click(corpus.TabButtonRef("Main", "Recent")); err != nil {
		t.Fatal(err)
	}
	two := New(src.App(), Options{})
	if err := two.Restore(snap); err != nil {
		t.Fatal(err)
	}
	requireEqualState(t, observeState(t, two, nil), want)
}

// TestRestoreStaleSnapshot is the corruption-style case: a snapshot captured
// on one installation must not resume on another. Rebuilding the same spec is
// a new install (new app identity), so the restore fails and the target
// device is untouched.
func TestRestoreStaleSnapshot(t *testing.T) {
	src := demoDevice(t, Options{})
	launch(t, src)
	snap := src.Snapshot()

	reinstalled, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	d := New(reinstalled, Options{})
	if err := d.ForceStart(pkg + "Settings"); err != nil {
		t.Fatal(err)
	}
	before := observeState(t, d, nil)
	if err := d.Restore(snap); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("Restore on reinstalled app = %v, want ErrStaleSnapshot", err)
	}
	requireEqualState(t, observeState(t, d, nil), before)

	if err := d.Restore(nil); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("Restore(nil) = %v, want ErrStaleSnapshot", err)
	}
}

// TestRestoreReplacesMutatedState pins the restart semantics: a device that
// moved on (forced start to a different activity) and then restores a
// snapshot is back at the snapshot's screen, with the steps of both the
// detour and the restored prefix accounted and nothing logged by the
// restore. From there it logs what the snapshot's source logs.
func TestRestoreReplacesMutatedState(t *testing.T) {
	var srcLog, log logRecorder
	src := demoDevice(t, Options{Hook: srcLog.hook})
	launch(t, src)
	snap := src.Snapshot()
	srcLog.take()

	d := New(src.App(), Options{Hook: log.hook})
	launch(t, d)
	if err := d.ForceStart(pkg + "Settings"); err != nil {
		t.Fatal(err)
	}
	detourSteps := d.Steps()
	if len(log.take()) == 0 {
		t.Fatal("the detour logged nothing; the test is vacuous")
	}
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if cur, _ := d.CurrentActivity(); cur != pkg+"Main" {
		t.Fatalf("after restore current = %q, want Main", cur)
	}
	if d.Steps() != detourSteps+snap.Steps() {
		t.Fatalf("steps = %d, want detour %d + restored %d", d.Steps(), detourSteps, snap.Steps())
	}
	if lines := log.take(); len(lines) != 0 {
		t.Fatalf("restore logged %q; it re-emits nothing", lines)
	}
	for _, dev := range []*Device{src, d} {
		if err := dev.Click(corpus.NavButtonRef("Main", "Detail")); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := log.take(), srcLog.take(); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("after restore the device logged %q, its source %q", got, want)
	}
}

// TestRestoreCrashState pins that crash state round-trips: a snapshot of a
// crashed device restores as crashed with the same reason.
func TestRestoreCrashState(t *testing.T) {
	src := demoDevice(t, Options{})
	if err := src.ForceStart(pkg + "Account"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("ForceStart Account = %v, want crash", err)
	}
	snap := src.Snapshot()
	d := New(src.App(), Options{})
	if err := d.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !d.Crashed() || d.CrashReason() != src.CrashReason() {
		t.Fatalf("restored crash state = %v %q, want %q", d.Crashed(), d.CrashReason(), src.CrashReason())
	}
}

// driveRich pushes a device through a mixed interaction burst — launches,
// fills, clicks, backs, crash restarts — so its snapshot holds a deep stack,
// live fragments, listener tables and widget overrides.
func driveRich(t *testing.T, d *Device) {
	t.Helper()
	if err := d.LaunchMain(); err != nil {
		t.Fatalf("LaunchMain: %v", err)
	}
	burst(d, 0, 15)
}

// burst performs interactions from through from+n-1 of the driveRich
// sequence. Each choice depends only on the index and the device's screen,
// so two devices in equal states that burst alike stay equal.
func burst(d *Device, from, n int) {
	for i := from; i < from+n; i++ {
		if d.Crashed() || !d.Running() {
			if err := d.LaunchMain(); err != nil {
				return
			}
		}
		dump, err := d.Dump()
		if err != nil {
			return
		}
		if eds := dump.EditableRefs(); len(eds) > 0 {
			_ = d.EnterText(eds[i%len(eds)], fmt.Sprintf("snapshot-roundtrip-%d", i))
		}
		refs := dump.ClickableRefs()
		if len(refs) == 0 {
			_ = d.Back()
			continue
		}
		_ = d.Click(refs[i%len(refs)])
	}
}

// requireUnaliased fails if any mutable part of stack b — an activity
// instance, its listener table, override maps, intent extras, fragment list
// or dialog, or a fragment instance and its listener table — is shared with
// stack a.
func requireUnaliased(t *testing.T, a, b []*activityInstance) {
	t.Helper()
	parts := func(stack []*activityInstance) []uintptr {
		var out []uintptr
		add := func(v any) {
			if rv := reflect.ValueOf(v); !rv.IsNil() {
				out = append(out, rv.Pointer())
			}
		}
		for _, in := range stack {
			add(in)
			add(in.listeners)
			add(in.texts)
			add(in.visible)
			add(in.intent.extras)
			add(in.dialog)
			if cap(in.frags) > 0 {
				add(in.frags)
			}
			for _, f := range in.frags {
				add(f)
				add(f.listeners)
			}
		}
		return out
	}
	shared := make(map[uintptr]bool)
	for _, p := range parts(a) {
		shared[p] = true
	}
	for _, p := range parts(b) {
		if shared[p] {
			t.Fatalf("the stacks share mutable state at %#x", p)
		}
	}
}

// TestSnapshotCodecRoundTrip drives every corpus app (the 15 Table I apps
// plus the demo app) to a rich state and round-trips its snapshot through
// the device: Snapshot encodes the state, Restore decodes it onto a fresh
// device, and a second Snapshot of that device must reproduce the first
// exactly, unexported nil-ness and all. Neither step may alias mutable
// state across the copy. The restored device must then drive and log like
// the original, and the snapshot must still restore to the capture-time
// state after both devices moved on.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	if len(specs) != 16 {
		t.Fatalf("corpus has %d apps, want 16", len(specs))
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Package, func(t *testing.T) {
			app, err := corpus.BuildApp(spec)
			if err != nil {
				t.Fatalf("BuildApp: %v", err)
			}
			var log, log2 logRecorder
			d := New(app, Options{Hook: log.hook})
			driveRich(t, d)
			snap := d.Snapshot()
			requireUnaliased(t, d.stack, snap.stack)
			want := observeState(t, d, &log)
			want.events = nil // a restore re-emits none of the captured run's lines

			d2 := New(app, Options{Hook: log2.hook})
			if err := d2.Restore(snap); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			requireUnaliased(t, snap.stack, d2.stack)
			if got := d2.Snapshot(); !reflect.DeepEqual(got, snap) {
				t.Fatalf("round trip diverged:\n got: %#v\nwant: %#v", got, snap)
			}
			requireEqualState(t, observeState(t, d2, &log2), want)

			burst(d, 15, 10)
			burst(d2, 15, 10)
			requireEqualState(t, observeState(t, d2, &log2), observeState(t, d, &log))

			d3 := New(app, Options{})
			if err := d3.Restore(snap); err != nil {
				t.Fatalf("Restore after both devices moved on: %v", err)
			}
			requireEqualState(t, observeState(t, d3, nil), want)
		})
	}
}
