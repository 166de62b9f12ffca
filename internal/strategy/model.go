package strategy

import (
	"fmt"
	"strings"

	"fragdroid/internal/aftm"
	"fragdroid/internal/device"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

// ModelGuided is static-model-guided exploration: it compiles the AFTM path
// to every node reachable in the static model into a concrete test case up
// front — clicks where the model knows the widget, the reflective fragment
// switch where it does not, empty-Intent starts for activity edges with no
// click — and replays the compiled suite, finishing with a forced-start
// sweep of whatever stayed unvisited. Unlike the explorer it never evolves
// the model from observations, so the comparison isolates the value of the
// evolutionary feedback loop: model-guided reaches what static analysis
// predicted, and nothing else.
type ModelGuided struct {
	ex        *statics.Extraction
	effective map[string]bool

	visitedActs  map[string]bool
	visitedFrags map[string]bool
}

// modelTarget is one compiled test case and the node it aims for.
type modelTarget struct {
	node    aftm.Node
	script  robotium.Script
	purpose session.Purpose
}

// NewModelGuided returns the model-guided strategy for one analyzed app,
// ready for session.Drive.
func NewModelGuided(ex *statics.Extraction, _ Options) *ModelGuided {
	return &ModelGuided{
		ex:           ex,
		effective:    EffectiveSet(ex),
		visitedActs:  make(map[string]bool),
		visitedFrags: make(map[string]bool),
	}
}

// Name implements session.Strategy.
func (m *ModelGuided) Name() string { return "model" }

// SessionOptions implements session.Strategy: test-case-budgeted with
// auto-dismiss and curve sampling, like the explorer.
func (m *ModelGuided) SessionOptions(h session.Harness) session.Options {
	return session.Options{
		Budget:      h.Budget,
		HaltOnAPI:   h.HaltOnAPI,
		AutoDismiss: true,
		Observer:    h.Observer,
		Coverage:    m.coverage,
	}
}

// coverage counts credited effective activities and fragments.
func (m *ModelGuided) coverage() (int, int) {
	n := 0
	for a := range m.visitedActs {
		if m.effective[a] {
			n++
		}
	}
	return n, len(m.visitedFrags)
}

// Explore compiles the static AFTM into the target suite, replays it in
// order, skipping targets already credited on the way, then sweeps the
// still-unvisited effective activities with forced starts (§VI-C's second
// loop, without the rounds).
func (m *ModelGuided) Explore(s *session.Session) error {
	m.replay(s, m.suite(s))
	if s.Exhausted() || s.Halted() {
		return nil
	}
	var sweep []modelTarget
	for _, a := range m.ex.EffectiveActivities {
		if m.visitedActs[a] {
			continue
		}
		sweep = append(sweep, modelTarget{
			node:    aftm.ActivityNode(a),
			script:  robotium.Script{Name: "force_" + a, Ops: []robotium.Op{robotium.ForceStart(a)}},
			purpose: session.PurposeForcedStart,
		})
	}
	if len(sweep) > 0 {
		s.Notef("model: forced-start sweep over %d unvisited activities", len(sweep))
		m.replay(s, sweep)
	}
	return nil
}

// suite compiles the static AFTM into the target suite, breadth-first from
// the entry (the §VI-B queue order, compiled instead of evolved).
func (m *ModelGuided) suite(s *session.Session) []modelTarget {
	launch := robotium.Script{Name: "launch", Ops: []robotium.Op{robotium.LaunchMain()}}
	entry, ok := m.ex.Model.Entry()
	if !ok {
		s.Notef("model: no entry node; launch only")
		return []modelTarget{{script: launch, purpose: session.PurposeLaunch}}
	}
	targets := []modelTarget{{node: entry, script: launch, purpose: session.PurposeLaunch}}
	for _, n := range m.ex.Model.BFS() {
		if n == entry {
			continue
		}
		if t, ok := m.compile(n); ok {
			targets = append(targets, t)
		}
	}
	s.Notef("model: compiled %d targets from the static AFTM", len(targets)-1)
	return targets
}

// replay runs the targets in order, skipping those already credited, until
// the session is exhausted or halted.
func (m *ModelGuided) replay(s *session.Session, targets []modelTarget) {
	for _, t := range targets {
		if m.reached(t.node) {
			continue
		}
		d, res, ok := s.RunScript(t.script, t.purpose)
		if !ok {
			return
		}
		m.credit(s, t.script, d, res)
	}
}

// compile renders the AFTM path to one node as a concrete test case.
func (m *ModelGuided) compile(n aftm.Node) (modelTarget, bool) {
	path := m.ex.Model.PathTo(n)
	if len(path) == 0 {
		return modelTarget{}, false
	}
	ops := []robotium.Op{robotium.LaunchMain()}
	for _, e := range path {
		op, ok := m.compileEdge(e)
		if !ok {
			return modelTarget{}, false
		}
		ops = append(ops, op)
	}
	purpose := session.PurposeReplay
	switch ops[len(ops)-1].Kind {
	case robotium.OpReflect:
		purpose = session.PurposeReflection
	case robotium.OpForceStart:
		purpose = session.PurposeForcedStart
	}
	return modelTarget{
		node:    n,
		script:  robotium.Script{Name: "model_" + n.Name, Ops: ops},
		purpose: purpose,
	}, true
}

// compileEdge maps one AFTM edge to the operation that takes it: the known
// click, the reflective switch for clickless fragment edges (§VI-B: "if no
// explicit operation can be used for interface transition, the Java
// reflection mechanism will be utilized"), and the empty-Intent start for
// clickless activity edges.
func (m *ModelGuided) compileEdge(e aftm.Edge) (robotium.Op, bool) {
	if ref, ok := strings.CutPrefix(e.Via, "click:"); ok {
		return robotium.Click(ref), true
	}
	if e.To.Kind == aftm.KindFragment {
		frag := e.To.Name
		if !m.ex.TxnCommitted[frag] {
			return robotium.Op{}, false
		}
		host := ""
		if e.From.Kind == aftm.KindActivity {
			host = e.From.Name
		} else if h, ok := m.ex.Deps.PrimaryHost(frag); ok {
			host = h
		}
		containers := m.ex.Containers[host]
		if len(containers) == 0 {
			return robotium.Op{}, false
		}
		return robotium.Reflect(frag, containers[0]), true
	}
	return robotium.ForceStart(e.To.Name), true
}

// reached reports whether a target node was already credited.
func (m *ModelGuided) reached(n aftm.Node) bool {
	switch n.Kind {
	case aftm.KindActivity:
		return m.visitedActs[n.Name]
	case aftm.KindFragment:
		return m.visitedFrags[n.Name]
	}
	return false
}

// credit credits whatever interface the test case actually landed on —
// including partial progress of failed runs (the device holds the state the
// failing op left behind).
func (m *ModelGuided) credit(s *session.Session, sc robotium.Script, d *device.Device, res robotium.Result) {
	if res.Err != nil {
		s.Notef("model target %s failed at %q: %v", sc.Name, res.FailedOp, res.Err)
	}
	dump, err := d.Dump()
	if err != nil {
		return
	}
	if cur := dump.Activity; cur != "" && !m.visitedActs[cur] {
		m.visitedActs[cur] = true
		s.Trace(session.Event{Kind: session.KindVisit, Activity: cur,
			Script: sc.Name, Ops: len(sc.Ops),
			Msg: fmt.Sprintf("model reached %s (%d ops)", cur, len(sc.Ops))})
	}
	for _, f := range identifyFragments(m.ex, dump) {
		if m.visitedFrags[f] {
			continue
		}
		m.visitedFrags[f] = true
		s.Trace(session.Event{Kind: session.KindVisit, Node: "F:" + f,
			Script: sc.Name,
			Msg:    fmt.Sprintf("model reached fragment %s", f)})
	}
}

// Finish fills the generic outcome with the credited component sets.
func (m *ModelGuided) Finish(out *session.Outcome) {
	out.VisitedActivities = session.SortedKeys(m.visitedActs)
	out.VisitedFragments = session.SortedKeys(m.visitedFrags)
}
