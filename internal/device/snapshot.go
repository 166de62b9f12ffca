package device

import (
	"errors"

	"fragdroid/internal/apk"
)

// ErrStaleSnapshot is returned by Restore when the snapshot was captured on a
// different installed app than the target device's — restoring it would
// resume into state that never existed on this installation.
var ErrStaleSnapshot = errors.New("device: snapshot belongs to a different app installation")

// journalEntry is one replayable side effect of interpretation: either a
// device-log line or a sensitive-API emission. The journal is what makes
// snapshots observationally exact: restoring a snapshot re-applies the
// entries in order, so the monitor and the log hook see the same stream a
// real re-execution of the route prefix would have produced.
type journalEntry struct {
	line string
	// sens is non-nil for sensitive-API emissions, nil for log lines. A
	// pointer keeps the common log entry at two words — the journal is the
	// interpreter's fastest-growing slice, and most entries are plain lines.
	sens *SensitiveEvent
}

// Snapshot is an immutable capture of a device's full interpreter state: the
// activity back stack with live fragments, widget-state overrides, pending
// dialogs and intent extras, the crash state, the logical step count, and the
// side-effect journal accumulated since the device was created. Snapshots
// never alias mutable device state — Snapshot deep-copies on capture and
// Restore deep-copies on reinstatement — so one snapshot can seed any number
// of devices, concurrently, without write-back. Layout trees are shared, not
// copied: they are immutable at runtime (all mutable widget state lives in
// the per-activity override maps).
type Snapshot struct {
	app      *apk.App
	stack    []*activityInstance
	crashed  bool
	crashMsg string
	steps    int
	journal  []journalEntry
}

// Steps reports the logical step count the snapshot stands for — the
// interpreter work a fresh device would have to perform to reach this state
// by executing the captured route from launch.
func (s *Snapshot) Steps() int { return s.steps }

// Snapshot captures the device's current state as an immutable value. The
// capture covers everything interpretation can observe or mutate — activity
// and fragment stacks, widget trees (shared, immutable), listener
// registrations, text and visibility overrides, intent extras, dialogs, the
// crash state — plus the side-effect journal and step count needed to make a
// later Restore observationally identical to re-executing the route.
func (d *Device) Snapshot() *Snapshot {
	return &Snapshot{
		app:      d.app,
		stack:    copyStack(d.stack),
		crashed:  d.crashed,
		crashMsg: d.crashMsg,
		steps:    d.steps,
		// A capped view, not a copy: the journal is append-only and its
		// entries are immutable values, so the prefix can be shared. The cap
		// keeps any append on the view from ever touching the device's tail,
		// and a capture costs O(state) instead of O(journal).
		journal: d.journal[:len(d.journal):len(d.journal)],
	}
}

// Restore reinstates a snapshot: the interpreter state (stack, fragments,
// overrides, crash state) replaces whatever the device was doing — exactly
// like the kill-and-restart the snapshot stands in for — while the
// side-effect journal and step charge are applied on top of the device's own
// log and counters, as a real re-execution would have appended them. The
// journal entries are re-emitted through the device's monitor and log hook,
// so sensitive-API collectors and trace observers see the same stream either
// way. Restoring a snapshot captured on a different app installation fails
// with ErrStaleSnapshot and leaves the device untouched.
func (d *Device) Restore(s *Snapshot) error {
	if s == nil || s.app != d.app {
		return ErrStaleSnapshot
	}
	d.stack = copyStack(s.stack)
	d.crashed = s.crashed
	d.crashMsg = s.crashMsg
	d.steps += s.steps
	d.restored += s.steps
	d.journal = append(d.journal, s.journal...)
	for _, e := range s.journal {
		if e.sens != nil {
			if d.opts.Monitor != nil {
				d.opts.Monitor(*e.sens)
			}
		} else if d.opts.Hook != nil {
			d.opts.Hook(e.line)
		}
	}
	return nil
}

// copyStack deep-copies the activity back stack. Map nil-ness is preserved
// (instances allocate their override maps lazily); layout content pointers
// are shared because the trees are immutable at runtime.
func copyStack(stack []*activityInstance) []*activityInstance {
	if stack == nil {
		return nil
	}
	out := make([]*activityInstance, len(stack))
	for i, a := range stack {
		cp := &activityInstance{
			class:     a.class,
			intent:    a.intent,
			content:   a.content,
			fragOrder: append([]string(nil), a.fragOrder...),
			listeners: copyHandlerMap(a.listeners),
			texts:     copyStringMap(a.texts),
			visible:   copyBoolMap(a.visible),
		}
		cp.intent.extras = copyStringMap(a.intent.extras)
		if a.dialog != nil {
			dl := *a.dialog
			cp.dialog = &dl
		}
		if a.fragments != nil {
			cp.fragments = make(map[string]*fragmentInstance, len(a.fragments))
			for c, f := range a.fragments {
				fc := &fragmentInstance{
					class:     f.class,
					container: f.container,
					content:   f.content,
					listeners: copyHandlerMap(f.listeners),
					viaFM:     f.viaFM,
				}
				cp.fragments[c] = fc
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
