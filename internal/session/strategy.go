// Strategy is the first-class exploration-strategy seam: every dynamic
// engine — FragDroid's evolutionary explorer, the Activity-level baseline,
// Monkey, recorder replay, and the newer biased-random / model-guided /
// trace-reuse generators — is one implementation of the same
// propose-next-test-case / observe-result / done automaton, driven by the
// generic Drive loop below. Drive owns everything the engines used to
// duplicate: session construction, the propose/run/observe cycle with budget
// and halt enforcement, the final coverage-curve sample, and the assembly of
// the engine-independent Outcome. Because every strategy runs through one
// loop on one session runtime, budgets, restarts and accounting are the same
// for all of them by construction, and comparative evaluations (the bake-off
// harness in internal/report) compare strategies rather than bespoke code
// paths — the fairness requirement of Choudhary et al.'s generator
// comparison.
package session

import (
	"sort"

	"fragdroid/internal/apk"
	"fragdroid/internal/device"
	"fragdroid/internal/robotium"
	"fragdroid/internal/sensitive"
)

// Harness bundles the engine-independent run plumbing every strategy shares:
// the test-case budget, halt condition, and trace sink. Engine-specific knobs
// (reflection, input files, event mixes) stay in each strategy's own config;
// SessionOptions merges the two.
type Harness struct {
	// Budget bounds the number of budgeted test cases; zero lets the
	// strategy's own default apply.
	Budget int
	// HaltOnAPI stops the run as soon as the named sensitive API fires
	// (targeted SmartDroid-style runs).
	HaltOnAPI string
	// Observer receives the run's structured trace events (nil disables).
	Observer Observer
}

// TestCase is one proposal of a strategy: either a declarative script the
// drive loop executes as one budgeted test case (the provisioned device and
// result flow back through Observe), or an imperative segment the strategy
// drives itself against the session (multi-script interface exploration,
// long-lived-device event injection) with identical accounting.
type TestCase struct {
	// Script-form proposal: executed via Session.RunScript under the budget.
	Script  robotium.Script
	Purpose Purpose
	// Run-form proposal: when set, replaces script execution. The strategy
	// performs a self-contained unit of work through the session it was
	// bound to in Init; Observe is not called for run-form proposals.
	Run func() error
}

// DriveContext binds a strategy to one run: the app under test and the
// session carrying budgets and tracing.
type DriveContext struct {
	App     *apk.App
	Session *Session
}

// Outcome is the engine-independent result shape every strategy yields: the
// coverage sets, the sensitive-API observations, and the session telemetry.
// Engine-specific riches (the explorer's evolved AFTM, visit routes, crash
// triage detail) live on each engine's own Result type; the bake-off harness
// consumes this shape only.
type Outcome struct {
	// Strategy is the registry name of the strategy that produced the run.
	Strategy string
	// VisitedActivities and VisitedFragments list reached component classes,
	// sorted. Strategies that cannot credit fragments leave the latter empty.
	VisitedActivities []string
	VisitedFragments  []string
	// Collector holds the run's sensitive-API observations.
	Collector *sensitive.Collector
	// Stats carries the session counters.
	Stats
	// Curve records cumulative coverage after each executed test case (empty
	// when the strategy samples no curve).
	Curve []CurvePoint
	// CrashReports lists triaged force-closes, one per distinct reason.
	CrashReports []CrashReport
	// Transcript is the human-readable run log.
	Transcript []string
}

// Strategy is the propose/observe automaton one exploration engine
// implements. The drive loop calls SessionOptions once to construct the
// session, Init once to bind the run context (the static-extraction hook:
// strategies that consume a statics.Extraction capture it at construction),
// then alternates Propose and Observe until Propose reports done, and
// finally Finish to fold the strategy's coverage into the generic Outcome.
type Strategy interface {
	// Name is the registry name ("explorer", "monkey", "biased", ...).
	Name() string
	// SessionOptions merges the shared harness plumbing with the strategy's
	// engine-specific session knobs (auto-dismiss, crash triage, coverage
	// sampling). Called once, before Init.
	SessionOptions(h Harness) Options
	// Init binds the strategy to the run. A non-nil error aborts the drive.
	Init(ctx *DriveContext) error
	// Propose returns the next test case, or ok=false when the strategy is
	// done (the §VI-C termination condition, generalized). Propose must
	// terminate when the session is exhausted or halted: script proposals
	// that cannot run any more are skipped without Observe.
	Propose() (TestCase, bool)
	// Observe folds one executed script proposal's outcome back into the
	// strategy's model/queue state. A non-nil error aborts the drive.
	Observe(tc TestCase, d *device.Device, res robotium.Result) error
	// Finish completes the generic outcome (the visited sets) after the
	// drive loop; fatal conditions detected only at the end (a launch that
	// never ran) surface here.
	Finish(out *Outcome) error
}

// Drive runs one strategy to completion on one app: it constructs the
// session from the strategy's options, loops propose → execute → observe
// under the session's budget, and assembles the generic Outcome. Script
// proposals that cannot run (budget exhausted, target API halted) are
// skipped without Observe; the strategy's Propose decides when that means
// done.
func Drive(app *apk.App, strat Strategy, h Harness) (*Outcome, error) {
	s := New(app, strat.SessionOptions(h))
	if err := strat.Init(&DriveContext{App: app, Session: s}); err != nil {
		return nil, err
	}
	for {
		tc, ok := strat.Propose()
		if !ok {
			break
		}
		if tc.Run != nil {
			if err := tc.Run(); err != nil {
				return nil, err
			}
			continue
		}
		d, res, ran := s.RunScript(tc.Script, tc.Purpose)
		if !ran {
			continue
		}
		if err := strat.Observe(tc, d, res); err != nil {
			return nil, err
		}
	}
	s.SampleCurve()
	out := &Outcome{
		Strategy:     strat.Name(),
		Collector:    s.Collector(),
		Stats:        s.Stats(),
		Curve:        s.Curve(),
		CrashReports: s.CrashReports(),
		Transcript:   s.Transcript(),
	}
	if err := strat.Finish(out); err != nil {
		return nil, err
	}
	return out, nil
}

// SortedKeys returns the keys of a string-keyed set, sorted — the canonical
// form strategies use to fill the Outcome visited lists.
func SortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
