package strategy

import (
	"fragdroid/internal/explorer"
	"fragdroid/internal/paths"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

// Directed is the statically guided strategy: the paths pass enumerates a
// launcher-to-site UI path for every static sensitive-API relation, lowers
// each into a robotium route, and the explorer engine replays those routes
// as seeds before falling back to its normal frontier exploration.
type Directed struct {
	session.Strategy
}

// NewDirected compiles the app's static route seeds and wraps the explorer
// engine around them.
func NewDirected(ex *statics.Extraction, opts Options) *Directed {
	cfg := explorer.DefaultConfig()
	cfg.Inputs = opts.Inputs
	cfg.MaxTestCases = opts.Budget
	cfg.Observer = opts.Observer
	p := paths.New(ex, paths.Config{
		Inputs:       opts.Inputs,
		DefaultInput: cfg.DefaultInput,
	})
	cfg.Seeds = explorer.SeedScripts(p.PlanAll())
	return &Directed{Strategy: explorer.NewStrategy(ex, cfg)}
}

// Name implements session.Strategy.
func (d *Directed) Name() string { return "directed" }
