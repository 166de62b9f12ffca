// Package strategy is the registry of exploration strategies: every dynamic
// engine the repo ships — the three classic ones (FragDroid's explorer, the
// Activity-level baseline, Monkey) and the newer generator families, each a
// session.Strategy running its own loop on one session — selectable by name
// with one option set, all returning the engine-independent session.Outcome.
//
// The registry is what turns the repo from one tool into a benchmark
// platform ("Are We There Yet?", PAPERS.md): CLIs pick strategies by name,
// and the bake-off harness in internal/report compares them under identical
// budgets, seeds, and session mechanics. Engines that share a mechanic share
// its code, so the mechanics stay identical: fragments are credited with
// explorer.IdentifyFragments everywhere, and biased, widget-weighted random
// testing, is a policy on Monkey's event loop in internal/baseline.
//
// The two strategies implemented here replay a fixed list of test cases on
// one replay-and-credit ledger, and cover generator families the comparison
// literature names beyond FragDroid's own:
//
//   - model: static-model-guided walking — compiles AFTM paths to unvisited
//     nodes into test cases up front and replays them, with no evolutionary
//     feedback (A3E-targeted-style systematic exploration).
//   - trace: PuppetDroid-style trace reuse — adapts recorded routes from
//     structurally similar corpus apps to the app under test and replays
//     them as seed test cases.
package strategy

import (
	"fmt"
	"strings"

	"fragdroid/internal/baseline"
	"fragdroid/internal/explorer"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

// Options is the engine-independent option set the registry maps onto each
// strategy's own configuration.
type Options struct {
	// Budget bounds the run: test cases for script-driven strategies,
	// injected events for the random ones (both are billed one test case
	// each, so coverage-vs-budget curves are comparable). Zero applies each
	// strategy's default.
	Budget int
	// Seed feeds the randomized strategies' RNGs (monkey, biased).
	// Deterministic strategies ignore it.
	Seed int64
	// Inputs is the analyst-provided input dependency: widget ref → value.
	Inputs map[string]string
	// Observer receives structured trace events; nil disables them and the
	// run's transcript.
	Observer session.Observer
	// Curve enables coverage-curve sampling on strategies where it is
	// opt-in (the legacy baselines keep their trace streams byte-identical
	// unless asked). The new strategies always sample.
	Curve bool
	// Library is the recorded-route library the trace strategy adapts from;
	// nil leaves it with only the launch fallback.
	Library *Library
}

// Names lists the registered strategies in canonical comparison order.
func Names() []string {
	return []string{"explorer", "activity", "monkey", "biased", "model", "trace", "directed"}
}

// Known reports whether name is a registered strategy.
func Known(name string) bool {
	for _, n := range Names() {
		if n == name {
			return true
		}
	}
	return false
}

// Run executes one named strategy on a statically analyzed app and returns
// the engine-independent outcome.
func Run(name string, ex *statics.Extraction, opts Options) (*session.Outcome, error) {
	h := session.Harness{
		Budget:   opts.Budget,
		Observer: opts.Observer,
	}
	switch name {
	case "explorer":
		cfg := explorer.DefaultConfig()
		cfg.Inputs = opts.Inputs
		cfg.MaxTestCases = opts.Budget
		cfg.Observer = opts.Observer
		r, err := explorer.ExploreExtracted(ex, cfg)
		if err != nil {
			return nil, err
		}
		return FromExplorer(r), nil
	case "activity":
		cfg := baseline.DefaultActivityConfig()
		cfg.Inputs = opts.Inputs
		cfg.MaxTestCases = opts.Budget
		cfg.Observer = opts.Observer
		cfg.SampleCurve = opts.Curve
		cfg.Effective = EffectiveSet(ex)
		return baseline.ExploreActivities(ex.App, cfg)
	case "monkey", "biased":
		cfg := baseline.MonkeyConfig{
			Seed:        opts.Seed,
			Events:      opts.Budget,
			Observer:    opts.Observer,
			SampleCurve: opts.Curve,
			Effective:   EffectiveSet(ex),
		}
		if name == "monkey" {
			return baseline.Monkey(ex.App, cfg)
		}
		cfg.SampleCurve = true // biased is not a legacy baseline: it always samples
		return baseline.Biased(ex, cfg, opts.Inputs)
	case "model":
		return session.Drive(ex.App, NewModelGuided(ex, opts), h)
	case "trace":
		return session.Drive(ex.App, NewTraceReuse(ex, opts), h)
	case "directed":
		return session.Drive(ex.App, NewDirected(ex, opts), h)
	default:
		return nil, fmt.Errorf("strategy: unknown strategy %q (known: %s)", name, strings.Join(Names(), ", "))
	}
}

// FromExplorer returns the engine-independent outcome an explorer result
// embeds, for callers that ran the explorer directly (keeping its richer
// Result) but feed strategy-agnostic machinery like the bake-off tables.
func FromExplorer(r *explorer.Result) *session.Outcome { return &r.Outcome }

// ParseList splits a comma-separated strategy list, validating every name.
func ParseList(list string) ([]string, error) {
	var out []string
	for _, raw := range strings.Split(list, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		if !Known(name) {
			return nil, fmt.Errorf("strategy: unknown strategy %q (known: %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("strategy: empty strategy list (known: %s)", strings.Join(Names(), ", "))
	}
	return out, nil
}

// EffectiveSet returns the static phase's effective activities as a set —
// the curve denominator every strategy's crediting is filtered against, so
// coverage percentages compare like against like.
func EffectiveSet(ex *statics.Extraction) map[string]bool {
	set := make(map[string]bool, len(ex.EffectiveActivities))
	for _, a := range ex.EffectiveActivities {
		set[a] = true
	}
	return set
}
