package strategy

import (
	"fmt"
	"strings"

	"fragdroid/internal/aftm"
	"fragdroid/internal/device"
	"fragdroid/internal/explorer"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

// ledger is the replay-and-credit bookkeeping of the strategies that replay
// a fixed list of test cases (model and trace): it runs them in order and
// credits whatever interface each one landed on, with the explorer's
// fragment-crediting rule.
type ledger struct {
	ex        *statics.Extraction
	effective map[string]bool
	// name is the strategy's registry name, which starts its visit
	// messages ("model reached ...").
	name string
	// failNote formats the note for a test case that failed, from the
	// script name, the failed op and the error.
	failNote string

	visitedActs  map[string]bool
	visitedFrags map[string]bool
}

func newLedger(ex *statics.Extraction, name, failNote string) ledger {
	return ledger{
		ex:           ex,
		effective:    EffectiveSet(ex),
		name:         name,
		failNote:     failNote,
		visitedActs:  make(map[string]bool),
		visitedFrags: make(map[string]bool),
	}
}

// Name implements session.Strategy.
func (l *ledger) Name() string { return l.name }

// target is one test case and the node it aims for; the zero node aims for
// none.
type target struct {
	node    aftm.Node
	script  robotium.Script
	purpose session.Purpose
}

// coverage counts credited effective activities and fragments.
func (l *ledger) coverage() (int, int) {
	n := 0
	for a := range l.visitedActs {
		if l.effective[a] {
			n++
		}
	}
	return n, len(l.visitedFrags)
}

// replay runs the targets in order, skipping those already credited, until
// the session is exhausted.
func (l *ledger) replay(s *session.Session, targets []target) {
	for _, t := range targets {
		if l.reached(t.node) {
			continue
		}
		d, res, ok := s.RunScript(t.script, t.purpose)
		if !ok {
			return
		}
		l.credit(s, t.script, d, res)
	}
}

// reached reports whether a target node was already credited.
func (l *ledger) reached(n aftm.Node) bool {
	switch n.Kind {
	case aftm.KindActivity:
		return l.visitedActs[n.Name]
	case aftm.KindFragment:
		return l.visitedFrags[n.Name]
	}
	return false
}

// credit credits whatever interface the test case actually landed on —
// including partial progress of failed runs (the device holds the state the
// failing op left behind).
func (l *ledger) credit(s *session.Session, sc robotium.Script, d *device.Device, res robotium.Result) {
	if res.Err != nil {
		s.Notef(l.failNote, sc.Name, res.FailedOp, res.Err)
	}
	dump, err := d.Dump()
	if err != nil {
		return
	}
	if cur := dump.Activity; cur != "" && !l.visitedActs[cur] {
		l.visitedActs[cur] = true
		ev := session.Event{Kind: session.KindVisit, Activity: cur, Script: sc.Name, Ops: len(sc.Ops)}
		if s.Tracing() {
			ev.Msg = fmt.Sprintf("%s reached %s (%d ops)", l.name, cur, len(sc.Ops))
		}
		s.Trace(ev)
	}
	for rest := explorer.IdentifyFragments(l.ex, dump); rest != ""; {
		var f string
		f, rest, _ = strings.Cut(rest, ",")
		if l.visitedFrags[f] {
			continue
		}
		l.visitedFrags[f] = true
		ev := session.Event{Kind: session.KindVisit, Node: "F:" + f, Script: sc.Name}
		if s.Tracing() {
			ev.Msg = fmt.Sprintf("%s reached fragment %s", l.name, f)
		}
		s.Trace(ev)
	}
}

// Finish fills the generic outcome with the credited component sets.
func (l *ledger) Finish(out *session.Outcome) {
	out.VisitedActivities = session.SortedKeys(l.visitedActs)
	out.VisitedFragments = session.SortedKeys(l.visitedFrags)
}
