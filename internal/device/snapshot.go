package device

import (
	"errors"

	"fragdroid/internal/apk"
)

// ErrStaleSnapshot is returned by Restore when the snapshot was captured on a
// different installed app than the target device's — restoring it would
// resume into state that never existed on this installation.
var ErrStaleSnapshot = errors.New("device: snapshot belongs to a different app installation")

// Snapshot is an immutable capture of a device's full interpreter state: the
// activity back stack with live fragments, widget-state overrides, pending
// dialogs and intent extras, the crash state and the logical step count. It
// holds no side effects: the device keeps no log, and a restore re-emits
// nothing. Snapshots never alias mutable device state — Snapshot deep-copies
// on capture and Restore deep-copies on reinstatement — so one snapshot can
// seed any number of devices, concurrently, without write-back. Layout trees
// are shared, not copied: they are immutable at runtime (all mutable widget
// state lives in the per-activity override maps).
type Snapshot struct {
	app      *apk.App
	stack    []*activityInstance
	crashed  bool
	crashMsg string
	steps    int
}

// Steps reports the logical step count the snapshot stands for — the
// interpreter work a fresh device would have to perform to reach this state
// by executing the captured route from launch.
func (s *Snapshot) Steps() int { return s.steps }

// Snapshot captures the device's current state as an immutable value. The
// capture covers everything interpretation can observe or mutate — activity
// and fragment stacks, widget trees (shared, immutable), listener
// registrations, text and visibility overrides, intent extras, dialogs, the
// crash state — plus the step count a re-execution of the route would bill.
func (d *Device) Snapshot() *Snapshot {
	return &Snapshot{
		app:      d.app,
		stack:    copyStack(d.stack),
		crashed:  d.crashed,
		crashMsg: d.crashMsg,
		steps:    d.steps,
	}
}

// Restore reinstates a snapshot: the interpreter state (stack, fragments,
// overrides, crash state) replaces whatever the device was doing — exactly
// like the kill-and-restart the snapshot stands in for — and the snapshot's
// steps are credited on top of the device's own count, as restored steps.
// Nothing is re-emitted: neither the Monitor nor the Hook sees the captured
// run's events again. Restoring a snapshot captured on a different app
// installation fails with ErrStaleSnapshot and leaves the device untouched.
func (d *Device) Restore(s *Snapshot) error {
	if s == nil || s.app != d.app {
		return ErrStaleSnapshot
	}
	d.stack = copyStack(s.stack)
	d.crashed = s.crashed
	d.crashMsg = s.crashMsg
	d.steps += s.steps
	d.restored += s.steps
	return nil
}

// copyStack deep-copies the activity back stack. Map nil-ness is preserved
// (instances allocate their override maps lazily); layout content pointers
// are shared because the trees are immutable at runtime. An empty stack
// copies as nil.
func copyStack(stack []*activityInstance) []*activityInstance {
	if len(stack) == 0 {
		return nil
	}
	out := make([]*activityInstance, len(stack))
	for i, a := range stack {
		cp := &activityInstance{
			class:     a.class,
			intent:    a.intent,
			content:   a.content,
			listeners: copyHandlerMap(a.listeners),
			texts:     copyStringMap(a.texts),
			visible:   copyBoolMap(a.visible),
		}
		cp.intent.extras = copyStringMap(a.intent.extras)
		if a.dialog != nil {
			dl := *a.dialog
			cp.dialog = &dl
		}
		if a.frags != nil {
			cp.frags = make([]*fragmentInstance, len(a.frags))
			for j, f := range a.frags {
				cp.frags[j] = &fragmentInstance{
					class:     f.class,
					container: f.container,
					content:   f.content,
					listeners: copyHandlerMap(f.listeners),
					viaFM:     f.viaFM,
				}
			}
		}
		out[i] = cp
	}
	return out
}

func copyStringMap(m map[string]string) map[string]string {
	if m == nil {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyBoolMap(m map[string]bool) map[string]bool {
	if m == nil {
		return nil
	}
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copyHandlerMap(m map[string]handlerRef) map[string]handlerRef {
	if m == nil {
		return nil
	}
	out := make(map[string]handlerRef, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
