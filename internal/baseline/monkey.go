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
// crashes or exits. It models Google's Monkey exerciser. The outcome carries
// no fragments, and its TestCases counts injected events.
func Monkey(app *apk.App, cfg MonkeyConfig) (*session.Outcome, error) {
	return drive(NewMonkeyStrategy(app, cfg))
}

// drive defaults the event count and runs a random tester on its app.
func drive(e *monkeyEngine) (*session.Outcome, error) {
	if e.cfg.Events == 0 {
		e.cfg.Events = 2000
	}
	return session.Drive(e.app, e, session.Harness{Budget: e.cfg.Events, Observer: e.cfg.Observer})
}

// eventPolicy is what sets one random tester apart from another: the loop
// owns the event mix, the restarts and the billing, the policy only picks a
// click target and types into a field the loop chose.
type eventPolicy interface {
	// click draws a visible clickable widget of the dump; ok is false when
	// there is none.
	click(rng *rand.Rand, dump device.UIDump) (ref string, ok bool)
	// enterText types a value into the editable field ref.
	enterText(s *session.Session, d *device.Device, rng *rand.Rand, ref string)
}

// uniform is Monkey's policy: every clickable widget is equally likely, and
// text entry types a junk word.
type uniform struct{}

func (uniform) click(rng *rand.Rand, dump device.UIDump) (string, bool) {
	refs := dump.ClickableRefs()
	if len(refs) == 0 {
		return "", false
	}
	return refs[rng.Intn(len(refs))], true
}

func (uniform) enterText(_ *session.Session, d *device.Device, rng *rand.Rand, ref string) {
	_ = d.EnterText(ref, randomWords[rng.Intn(len(randomWords))])
}

// monkeyEngine is a random tester as a session.Strategy: one event-injection
// loop on a long-lived device (random testing has no test-case decomposition
// to expose, so each injected event bills one test case).
type monkeyEngine struct {
	name    string
	app     *apk.App
	cfg     MonkeyConfig
	policy  eventPolicy
	visited map[string]bool
}

// NewMonkeyStrategy returns the Monkey exerciser as a session.Strategy,
// ready for session.Drive. Callers that drive it themselves should default
// cfg.Events first (Monkey and Biased do).
func NewMonkeyStrategy(app *apk.App, cfg MonkeyConfig) *monkeyEngine {
	return &monkeyEngine{
		name:    "monkey",
		app:     app,
		cfg:     cfg,
		policy:  uniform{},
		visited: make(map[string]bool),
	}
}

// Name implements session.Strategy.
func (e *monkeyEngine) Name() string { return e.name }

// SessionOptions implements session.Strategy: a random tester runs no
// script, so it needs neither auto-dismiss nor crash triage; the loop bills
// its events itself.
func (e *monkeyEngine) SessionOptions() session.Options {
	var opts session.Options
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

// Finish fills the generic outcome with the reached activity set.
func (e *monkeyEngine) Finish(out *session.Outcome) {
	out.VisitedActivities = session.SortedKeys(e.visited)
}

// Explore is the event-injection loop: clicks take 70% of the events, text
// 15%, BACK 10% and dialog dismissal 5%, and every crash or exit restarts
// the app at MAIN/LAUNCHER.
func (e *monkeyEngine) Explore(s *session.Session) error {
	d := s.NewDevice()
	rng := rand.New(rand.NewSource(e.cfg.Seed))
	var actions []string
	if e.cfg.SystemEvents {
		actions = e.app.Manifest.BroadcastActions()
	}
	restarts := 0

	observe := func() {
		if cur, err := d.CurrentActivity(); err == nil && !e.visited[cur] {
			e.visited[cur] = true
			ev := session.Event{Kind: session.KindVisit, Activity: cur}
			if s.Tracing() {
				ev.Msg = e.name + " reached " + cur
			}
			s.Trace(ev)
		}
	}

	if err := d.LaunchMain(); err != nil {
		return fmt.Errorf("baseline: %s launch: %w", e.name, err)
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
		switch p := rng.Intn(100); {
		case len(actions) > 0 && p < 10: // system event
			_ = d.Broadcast(actions[rng.Intn(len(actions))])
		case p < 70: // click
			ref, ok := e.policy.click(rng, dump)
			if !ok {
				_ = d.Back()
				break
			}
			_ = d.Click(ref)
		case p < 85: // text
			refs := dump.EditableRefs()
			if len(refs) == 0 {
				break
			}
			e.policy.enterText(s, d, rng, refs[rng.Intn(len(refs))])
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

	for i := 0; i < e.cfg.Events; i++ {
		s.AddTestCases(1)
		if err := step(); err != nil {
			return err
		}
		s.SampleCurve()
	}

	s.AddSteps(d.Steps())
	s.Notef("%s done: %d events, %d crashes, %d restarts", e.name, e.cfg.Events, s.Stats().Crashes, restarts)
	return nil
}
