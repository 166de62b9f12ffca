// Strategy is the seam every dynamic engine implements: FragDroid's
// evolutionary explorer, the Activity-level baseline, Monkey, and the
// biased-random, model-guided, trace-reuse and directed generators. Each
// engine runs its own loop through one Session, and the Session owns what
// the engines share: the device it provisions and resets, the budget and
// halt checks, the counters, crash triage, the curve and the trace. Drive
// builds that session, calls Explore once, and assembles the
// engine-independent Outcome. Because every strategy spends the same budget
// through the same session, restarts and accounting are identical across
// strategies by construction, and the bake-off harness in internal/report
// compares strategies rather than bespoke code paths — the fairness
// requirement of Choudhary et al.'s generator comparison.

package session

import (
	"sort"

	"fragdroid/internal/apk"
	"fragdroid/internal/sensitive"
)

// Harness bundles the engine-independent run plumbing every strategy shares:
// the test-case budget, halt condition, and trace sink. Engine-specific knobs
// (reflection, input files, event mixes) stay in each strategy's own config;
// Drive sets the harness fields on the options SessionOptions returns.
type Harness struct {
	// Budget bounds the number of budgeted test cases; zero lets the
	// strategy's own default apply.
	Budget int
	// HaltOnAPI stops the run as soon as the named sensitive API fires
	// (targeted SmartDroid-style runs).
	HaltOnAPI string
	// Observer receives the run's structured trace events; nil disables
	// them and the transcript (see Options.Observer).
	Observer Observer
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
	// Transcript is the human-readable run log: the Msg lines of the events
	// the Observer received (RenderTranscript of them). It is nil when the
	// run had no Observer.
	Transcript []string
}

// Strategy is one exploration engine. Drive calls SessionOptions once to
// construct the session, Explore once to run the engine's loop on it, and
// Finish to fold the engine's coverage into the generic Outcome.
type Strategy interface {
	// Name is the registry name ("explorer", "monkey", "biased", ...).
	Name() string
	// SessionOptions returns the strategy's own session knobs (auto-dismiss,
	// crash triage, coverage sampling); Drive fills in Budget, HaltOnAPI and
	// Observer from the Harness. Called once, before Explore.
	SessionOptions() Options
	// Explore runs the engine's loop on the session until the engine is
	// done or the session is exhausted (out of budget or halted). A non-nil
	// error aborts the drive.
	Explore(s *Session) error
	// Finish fills the generic outcome's visited sets after Explore.
	Finish(out *Outcome)
}

// Drive runs one strategy to completion on one app: it constructs the
// session from the strategy's options and the harness, lets the strategy
// explore on it, takes the final coverage-curve sample, and assembles the
// generic Outcome.
func Drive(app *apk.App, strat Strategy, h Harness) (*Outcome, error) {
	opts := strat.SessionOptions()
	opts.Budget, opts.HaltOnAPI, opts.Observer = h.Budget, h.HaltOnAPI, h.Observer
	s := New(app, opts)
	if err := strat.Explore(s); err != nil {
		return nil, err
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
	strat.Finish(out)
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
