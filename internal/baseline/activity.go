// Package baseline implements the comparison systems of the evaluation:
//
//   - ActivityExplorer: a traditional Activity-level model-based tester in
//     the spirit of TrimDroid/A3E (§IX). It treats each Activity as one
//     fixed UI state: it clicks the widgets visible on first arrival, never
//     re-keys the UI on fragment or visibility changes, and has neither the
//     reflection mechanism nor Fragment-level crediting. Its blind spots —
//     drawer-hidden entries, reflection-only fragments — are exactly the
//     API calls the paper says traditional approaches must miss (≥9.6%).
//
//   - Monkey: seeded random event injection after Google's
//     UI/Application Exerciser Monkey, the paper's Section I strawman.
package baseline

import (
	"fmt"

	"fragdroid/internal/apk"
	"fragdroid/internal/device"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
)

// ActivityConfig tunes the Activity-level explorer.
type ActivityConfig struct {
	// Inputs is the same analyst input file FragDroid gets (fair play on
	// input gating).
	Inputs map[string]string
	// DefaultInput fills unknown fields.
	DefaultInput string
	// UseForcedStart enables empty-Intent starts of undiscovered activities
	// (A3E-style targeted exploration).
	UseForcedStart bool
	// MaxTestCases bounds device sessions. Zero means 600.
	MaxTestCases int
	// Observer receives the run's structured trace events (nil disables
	// tracing and the transcript).
	Observer session.Observer
	// SampleCurve enables coverage-curve sampling after every test case.
	// Off by default: curve samples add trace events, and legacy runs'
	// event streams must stay byte-identical.
	SampleCurve bool
	// Effective restricts curve crediting to the given activity set (the
	// static phase's effective activities, so baseline curves compare
	// against the same denominator as the explorer's). Nil credits every
	// visited activity.
	Effective map[string]bool
}

// DefaultActivityConfig mirrors the explorer defaults minus fragment powers.
func DefaultActivityConfig() ActivityConfig {
	return ActivityConfig{UseForcedStart: true, DefaultInput: "test123"}
}

type actEngine struct {
	app     *apk.App
	cfg     ActivityConfig
	s       *session.Session
	visited map[string]robotium.Script
	queue   []string
}

// ExploreActivities runs the Activity-level baseline on a loaded app. The
// outcome carries no fragments: this tool cannot observe them.
func ExploreActivities(app *apk.App, cfg ActivityConfig) (*session.Outcome, error) {
	if cfg.MaxTestCases == 0 {
		cfg.MaxTestCases = 600
	}
	return session.Drive(app, NewActivityStrategy(app, cfg), session.Harness{
		Budget:   cfg.MaxTestCases,
		Observer: cfg.Observer,
	})
}

// NewActivityStrategy returns the Activity-level baseline as a
// session.Strategy, ready for session.Drive.
func NewActivityStrategy(app *apk.App, cfg ActivityConfig) *actEngine {
	return &actEngine{
		app:     app,
		cfg:     cfg,
		visited: make(map[string]robotium.Script),
	}
}

// Name implements session.Strategy.
func (e *actEngine) Name() string { return "activity" }

// SessionOptions implements session.Strategy: auto-dismiss on, no crash
// triage (the baselines count crashes but produce no fault-finding output).
func (e *actEngine) SessionOptions(h session.Harness) session.Options {
	opts := session.Options{
		Budget:      h.Budget,
		AutoDismiss: true,
		Observer:    h.Observer,
	}
	if e.cfg.SampleCurve {
		opts.Coverage = e.coverage
	}
	return opts
}

// coverage feeds the optional curve sampler: visited activities within the
// effective set, no fragment crediting (the baseline cannot observe them).
func (e *actEngine) coverage() (int, int) {
	n := 0
	for a := range e.visited {
		if e.cfg.Effective == nil || e.cfg.Effective[a] {
			n++
		}
	}
	return n, 0
}

// Explore runs the explorer's round discipline at the Activity level: launch,
// then drain the queue and run the forced pass, repeated until a round finds
// nothing new. A launch that never ran leaves an empty outcome, not an error.
func (e *actEngine) Explore(s *session.Session) error {
	e.s = s
	launch := robotium.Script{Name: "launch", Ops: []robotium.Op{robotium.LaunchMain()}}
	d, res, ok := s.RunScript(launch, session.PurposeLaunch)
	if !ok {
		return nil
	}
	if res.Err != nil {
		return fmt.Errorf("baseline: launch failed: %w", res.Err)
	}
	cur, err := d.CurrentActivity()
	if err != nil {
		return err
	}
	e.visit(cur, launch)
	for {
		progressed := false
		for len(e.queue) > 0 && !s.Exhausted() {
			a := e.queue[0]
			e.queue = e.queue[1:]
			progressed = true
			e.exploreActivity(a)
		}
		if e.cfg.UseForcedStart && !s.Exhausted() && e.forcedPass() {
			progressed = true
		}
		if !progressed || s.Exhausted() {
			return nil
		}
	}
}

// Finish fills the generic outcome with the visited activity set.
func (e *actEngine) Finish(out *session.Outcome) {
	out.VisitedActivities = session.SortedKeys(e.visited)
}

func (e *actEngine) visit(activity string, route robotium.Script) {
	if _, seen := e.visited[activity]; seen {
		return
	}
	e.visited[activity] = route
	e.queue = append(e.queue, activity)
	e.s.Trace(session.Event{Kind: session.KindVisit, Activity: activity,
		Script: route.Name, Ops: len(route.Ops),
		Msg: fmt.Sprintf("visited activity %s (%d ops)", activity, len(route.Ops))})
}

// exploreActivity clicks the widgets visible on first arrival, once each.
// The activity is a fixed UI state: no re-dump after clicks that "only"
// change fragments or visibility.
func (e *actEngine) exploreActivity(activity string) {
	route := e.visited[activity]
	d, res, ok := e.s.RunScript(route, session.PurposeReplay)
	if !ok || res.Err != nil {
		return
	}
	if d.HasDialog() {
		_ = d.DismissDialog()
	}
	dump, err := d.Dump()
	if err != nil {
		return
	}
	clickables := dump.ClickableRefs()
	e.s.Notef("activity %s: %d clickable widgets", activity, len(clickables))

	needReplay := false
	for _, ref := range clickables {
		if needReplay {
			var ok bool
			d, res, ok = e.s.RunScript(route, session.PurposeReplay)
			if !ok || res.Err != nil {
				return
			}
			if d.HasDialog() {
				_ = d.DismissDialog()
			}
			needReplay = false
		}
		if cur, err := d.CurrentActivity(); err != nil || cur != activity {
			needReplay = true
			continue
		}
		fillOps := e.fillInputs(d)
		if err := d.Click(ref); err != nil {
			continue
		}
		if d.Crashed() {
			e.s.MarkCrash(d.CrashReason(), robotium.Script{})
			needReplay = true
			continue
		}
		cur, err := d.CurrentActivity()
		if err != nil {
			needReplay = true
			continue
		}
		if cur != activity {
			newRoute := route.Append("reach_"+cur, fillOps...)
			newRoute.Ops = append(newRoute.Ops, robotium.Click(ref))
			e.visit(cur, newRoute)
			needReplay = true
		}
	}
}

// fillInputs completes visible fields with provided or default values and
// returns the performed operations so recorded routes can replay them.
func (e *actEngine) fillInputs(d *device.Device) []robotium.Op {
	dump, err := d.Dump()
	if err != nil {
		return nil
	}
	var ops []robotium.Op
	for _, ref := range dump.EditableRefs() {
		val, ok := e.cfg.Inputs[ref]
		if !ok {
			val = e.cfg.DefaultInput
		}
		if val == "" {
			continue
		}
		ev := session.Event{Kind: session.KindInputFill, Ref: ref, Value: val}
		if err := d.EnterText(ref, val); err == nil {
			ops = append(ops, robotium.EnterText(ref, val))
		} else {
			ev.Err = err.Error()
		}
		e.s.Trace(ev)
	}
	return ops
}

// forcedPass force-starts declared activities not yet visited.
func (e *actEngine) forcedPass() bool {
	progressed := false
	for _, a := range e.app.Manifest.ActivityNames() {
		if _, seen := e.visited[a]; seen {
			continue
		}
		if e.s.Exhausted() {
			break
		}
		s := robotium.Script{Name: "force_" + a, Ops: []robotium.Op{robotium.ForceStart(a)}}
		d, res, ok := e.s.RunScript(s, session.PurposeForcedStart)
		if !ok {
			break
		}
		if res.Err != nil {
			e.s.Trace(session.Event{Kind: session.KindForcedStart, Activity: a,
				Err: res.Err.Error(),
				Msg: fmt.Sprintf("forced start of %s failed: %v", a, res.Err)})
			continue
		}
		if cur, err := d.CurrentActivity(); err == nil {
			e.s.Trace(session.Event{Kind: session.KindForcedStart, Activity: a})
			e.visit(cur, s)
			progressed = true
		}
	}
	return progressed
}
