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
	"fragdroid/internal/sensitive"
	"fragdroid/internal/session"
)

// Result reports a baseline run. Fragment-level crediting is intentionally
// absent: these tools cannot observe fragments.
type Result struct {
	// VisitedActivities lists reached activity classes, sorted.
	VisitedActivities []string
	// Collector holds the sensitive-API observations.
	Collector *sensitive.Collector
	// Stats carries the session counters (TestCases counts device sessions
	// for ActivityExplorer, injected event batches for Monkey).
	session.Stats
	// Curve records cumulative coverage after each test case; empty unless
	// the config opted into curve sampling.
	Curve []session.CurvePoint
	// Transcript is the run log.
	Transcript []string
}

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
	// tracing).
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
	launch  robotium.Script

	// Propose phase-machine state (same round discipline as the explorer:
	// drain the queue, run the forced pass, repeat until nothing new).
	phase      int
	progressed bool
	launchRan  bool
}

// Propose phases of the activity-level loop.
const (
	actLaunch = iota
	actDrain
	actForced
	actRoundEnd
	actDone
)

// ExploreActivities runs the Activity-level baseline on a loaded app.
func ExploreActivities(app *apk.App, cfg ActivityConfig) (*Result, error) {
	if cfg.MaxTestCases == 0 {
		cfg.MaxTestCases = 600
	}
	e := NewActivityStrategy(app, cfg)
	out, err := session.Drive(app, e, session.Harness{
		Budget:   cfg.MaxTestCases,
		Observer: cfg.Observer,
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		VisitedActivities: out.VisitedActivities,
		Collector:         out.Collector,
		Stats:             out.Stats,
		Curve:             out.Curve,
		Transcript:        out.Transcript,
	}, nil
}

// NewActivityStrategy returns the Activity-level baseline as a
// session.Strategy, ready for session.Drive.
func NewActivityStrategy(app *apk.App, cfg ActivityConfig) *actEngine {
	return &actEngine{
		app:     app,
		cfg:     cfg,
		visited: make(map[string]robotium.Script),
		launch:  robotium.Script{Name: "launch", Ops: []robotium.Op{robotium.LaunchMain()}},
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

// Init binds the run context.
func (e *actEngine) Init(ctx *session.DriveContext) error {
	e.s = ctx.Session
	return nil
}

// Propose drives the launch → drain → forced-pass round loop.
func (e *actEngine) Propose() (session.TestCase, bool) {
	for {
		switch e.phase {
		case actLaunch:
			e.phase = actDrain
			return session.TestCase{Script: e.launch, Purpose: session.PurposeLaunch}, true
		case actDrain:
			if !e.launchRan {
				e.phase = actDone
				return session.TestCase{}, false
			}
			for len(e.queue) > 0 && !e.s.Exhausted() {
				a := e.queue[0]
				e.queue = e.queue[1:]
				e.progressed = true
				return session.TestCase{Run: func() error {
					e.exploreActivity(a)
					return nil
				}}, true
			}
			e.phase = actForced
		case actForced:
			e.phase = actRoundEnd
			if e.cfg.UseForcedStart && !e.s.Exhausted() {
				return session.TestCase{Run: func() error {
					if e.forcedPass() {
						e.progressed = true
					}
					return nil
				}}, true
			}
		case actRoundEnd:
			if !e.progressed || e.s.Exhausted() {
				e.phase = actDone
				return session.TestCase{}, false
			}
			e.progressed = false
			e.phase = actDrain
		default:
			return session.TestCase{}, false
		}
	}
}

// Observe handles the launch — the only script-form proposal this baseline
// makes.
func (e *actEngine) Observe(tc session.TestCase, d *device.Device, res robotium.Result) error {
	e.launchRan = true
	if res.Err != nil {
		return fmt.Errorf("baseline: launch failed: %w", res.Err)
	}
	cur, err := d.CurrentActivity()
	if err != nil {
		return err
	}
	e.visit(cur, tc.Script)
	return nil
}

// Finish fills the generic outcome with the visited activity set.
func (e *actEngine) Finish(out *session.Outcome) error {
	out.VisitedActivities = session.SortedKeys(e.visited)
	return nil
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
