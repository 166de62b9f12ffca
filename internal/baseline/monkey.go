package baseline

import (
	"fmt"
	"math/rand"

	"fragdroid/internal/apk"
	"fragdroid/internal/device"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
)

// MonkeyConfig tunes the random tester.
type MonkeyConfig struct {
	// Seed makes runs reproducible.
	Seed int64
	// Events is the number of injected UI events. Zero means 2000.
	Events int
	// SystemEvents additionally injects broadcasts the app's receivers
	// subscribe to (Dynodroid-style "UI and system events", §IX).
	SystemEvents bool
	// Observer receives the run's structured trace events (nil disables
	// tracing and the transcript).
	Observer session.Observer
	// SampleCurve enables coverage-curve sampling after every injected
	// event. Off by default: curve samples add trace events, and legacy
	// runs' event streams must stay byte-identical.
	SampleCurve bool
	// Effective restricts curve crediting to the given activity set; nil
	// credits every reached activity.
	Effective map[string]bool
}

// randomWords feed the monkey's text entry; none of them unlock input gates,
// as the paper observes for random strings like "abc".
var randomWords = []string{"abc", "test", "12345", "qwerty", "hello", ""}

// Monkey injects pseudo-random events: clicks on random visible widgets,
// random text, BACK presses, and dialog dismissals, restarting the app after
// crashes or exits. It models Google's Monkey exerciser.
func Monkey(app *apk.App, cfg MonkeyConfig) (*Result, error) {
	if cfg.Events == 0 {
		cfg.Events = 2000
	}
	e := NewMonkeyStrategy(app, cfg)
	out, err := session.Drive(app, e, session.Harness{Observer: cfg.Observer})
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

// monkeyEngine is Monkey as a session.Strategy: one run-form proposal
// containing the whole event-injection loop on a long-lived device (random
// testing has no test-case decomposition to expose — the event batch is the
// test case).
type monkeyEngine struct {
	app     *apk.App
	cfg     MonkeyConfig
	s       *session.Session
	visited map[string]bool
	done    bool
}

// NewMonkeyStrategy returns the Monkey exerciser as a session.Strategy,
// ready for session.Drive. Callers should default cfg.Events before
// constructing it (Monkey does).
func NewMonkeyStrategy(app *apk.App, cfg MonkeyConfig) *monkeyEngine {
	return &monkeyEngine{
		app:     app,
		cfg:     cfg,
		visited: make(map[string]bool),
	}
}

// Name implements session.Strategy.
func (e *monkeyEngine) Name() string { return "monkey" }

// SessionOptions implements session.Strategy: the monkey is event-budgeted,
// not test-case-budgeted, so the session budget stays unlimited and the loop
// bills its event batches itself.
func (e *monkeyEngine) SessionOptions(h session.Harness) session.Options {
	opts := session.Options{Observer: h.Observer}
	if e.cfg.SampleCurve {
		opts.Coverage = e.coverage
	}
	return opts
}

// coverage feeds the optional curve sampler: reached activities within the
// effective set, no fragment crediting.
func (e *monkeyEngine) coverage() (int, int) {
	n := 0
	for a := range e.visited {
		if e.cfg.Effective == nil || e.cfg.Effective[a] {
			n++
		}
	}
	return n, 0
}

// Init binds the run context.
func (e *monkeyEngine) Init(ctx *session.DriveContext) error {
	e.s = ctx.Session
	return nil
}

// Propose yields the single run-form event loop, then reports done.
func (e *monkeyEngine) Propose() (session.TestCase, bool) {
	if e.done {
		return session.TestCase{}, false
	}
	e.done = true
	return session.TestCase{Run: e.loop}, true
}

// Observe is never called: the monkey makes no script-form proposals.
func (e *monkeyEngine) Observe(session.TestCase, *device.Device, robotium.Result) error {
	return nil
}

// Finish fills the generic outcome with the reached activity set.
func (e *monkeyEngine) Finish(out *session.Outcome) error {
	out.VisitedActivities = session.SortedKeys(e.visited)
	return nil
}

// loop is the event-injection loop: every crash or exit restarts the app at
// MAIN/LAUNCHER.
func (e *monkeyEngine) loop() error {
	app, cfg, s := e.app, e.cfg, e.s
	d := s.NewDevice()
	rng := rand.New(rand.NewSource(cfg.Seed))
	restarts := 0

	observe := func() {
		if cur, err := d.CurrentActivity(); err == nil && !e.visited[cur] {
			e.visited[cur] = true
			s.Trace(session.Event{Kind: session.KindVisit, Activity: cur,
				Msg: fmt.Sprintf("monkey reached %s", cur)})
		}
	}

	if err := d.LaunchMain(); err != nil {
		return fmt.Errorf("baseline: monkey launch: %w", err)
	}
	observe()
	s.SampleCurve()

	// step injects one event. Each event is billed as one test case before
	// it runs, so the optional coverage curve is indexed by events injected
	// so far; with curve sampling off, per-event billing is observably
	// identical to the historical end-of-run batch bill (nothing reads the
	// counter mid-run).
	step := func() error {
		if d.Crashed() || !d.Running() {
			if d.Crashed() {
				s.MarkCrash(d.CrashReason(), robotium.Script{})
			}
			restarts++
			if err := d.LaunchMain(); err != nil {
				return err
			}
			observe()
			return nil
		}
		dump, err := d.Dump()
		if err != nil {
			return nil
		}
		actions := app.Manifest.BroadcastActions()
		switch p := rng.Intn(100); {
		case cfg.SystemEvents && len(actions) > 0 && p < 10: // system event
			_ = d.Broadcast(actions[rng.Intn(len(actions))])
		case p < 70: // random click
			refs := dump.ClickableRefs()
			if len(refs) == 0 {
				_ = d.Back()
				break
			}
			_ = d.Click(refs[rng.Intn(len(refs))])
		case p < 85: // random text
			refs := dump.EditableRefs()
			if len(refs) == 0 {
				break
			}
			_ = d.EnterText(refs[rng.Intn(len(refs))], randomWords[rng.Intn(len(randomWords))])
		case p < 95: // back
			_ = d.Back()
		default: // blank-space click
			if d.HasDialog() {
				_ = d.DismissDialog()
			}
		}
		observe()
		return nil
	}

	for i := 0; i < cfg.Events; i++ {
		s.AddTestCases(1)
		if err := step(); err != nil {
			return err
		}
		s.SampleCurve()
	}

	s.AddSteps(d.Steps())
	s.Notef("monkey done: %d events, %d crashes, %d restarts", cfg.Events, s.Stats().Crashes, restarts)
	return nil
}
