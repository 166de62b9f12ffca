package strategy

import (
	"fmt"
	"math/rand"

	"fragdroid/internal/device"
	"fragdroid/internal/inputgen"
	"fragdroid/internal/layout"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

// Biased is widget-weighted random testing: Monkey's event loop with an
// event distribution informed by the layout's widget kinds. Buttons, menu
// items, and tabs — the controls that actually navigate — are weighted above
// plain views, repeat clicks on the same widget decay so the frontier keeps
// moving, and text entry is hint-aware instead of drawing from a junk
// wordlist. The strategy stays model-free: it reads only the current UI
// dump, like Monkey, so the comparison against model-guided strategies
// isolates the value of the weighting alone.
type Biased struct {
	ex        *statics.Extraction
	inputs    map[string]string
	effective map[string]bool
	seed      int64
	events    int

	rng     *rand.Rand
	gen     *inputgen.Heuristic
	hints   map[string]string
	visited map[string]bool
	clicks  map[string]int
}

// NewBiased returns the biased-random strategy for one analyzed app, ready
// for session.Drive.
func NewBiased(ex *statics.Extraction, opts Options) *Biased {
	events := opts.Budget
	if events == 0 {
		events = 2000
	}
	hints := make(map[string]string)
	for _, w := range ex.InputWidgets {
		hints[w.Ref] = w.Hint
	}
	return &Biased{
		ex:        ex,
		inputs:    opts.Inputs,
		effective: EffectiveSet(ex),
		seed:      opts.Seed,
		events:    events,
		gen:       &inputgen.Heuristic{},
		hints:     hints,
		visited:   make(map[string]bool),
		clicks:    make(map[string]int),
	}
}

// Name implements session.Strategy.
func (b *Biased) Name() string { return "biased" }

// SessionOptions implements session.Strategy: event-budgeted like Monkey
// (the loop bills per event), always curve-sampled.
func (b *Biased) SessionOptions(h session.Harness) session.Options {
	return session.Options{Observer: h.Observer, Coverage: b.coverage}
}

// coverage counts reached effective activities; like Monkey, the strategy
// cannot credit fragments.
func (b *Biased) coverage() (int, int) {
	n := 0
	for a := range b.visited {
		if b.effective[a] {
			n++
		}
	}
	return n, 0
}

// Finish fills the generic outcome with the reached activity set.
func (b *Biased) Finish(out *session.Outcome) {
	out.VisitedActivities = session.SortedKeys(b.visited)
}

// clickWeight scores one clickable widget: navigation-bearing kinds start
// high and every previous click on the same ref halves the weight (floor 1),
// so unexplored controls dominate the draw.
func (b *Biased) clickWeight(w device.WidgetInfo) int {
	base := 2
	switch w.Type {
	case layout.TypeButton, layout.TypeImageButton:
		base = 8
	case layout.TypeMenuItem, layout.TypeTabItem:
		base = 6
	case layout.TypeCheckBox, layout.TypeSpinner, layout.TypeListView:
		base = 4
	}
	wt := base >> b.clicks[w.Ref]
	if wt < 1 {
		wt = 1
	}
	return wt
}

// pickClick draws a clickable widget ref with probability proportional to
// its weight; ok is false when nothing is clickable.
func (b *Biased) pickClick(dump device.UIDump) (string, bool) {
	type cand struct {
		ref string
		wt  int
	}
	var cands []cand
	total := 0
	for _, w := range dump.Widgets {
		if !w.Visible || !w.Clickable {
			continue
		}
		wt := b.clickWeight(w)
		cands = append(cands, cand{ref: w.Ref, wt: wt})
		total += wt
	}
	if total == 0 {
		return "", false
	}
	n := b.rng.Intn(total)
	for _, c := range cands {
		if n < c.wt {
			return c.ref, true
		}
		n -= c.wt
	}
	return cands[len(cands)-1].ref, true
}

// inputValue resolves text for a field: the analyst input file first, then
// the hint heuristic, then the default filler.
func (b *Biased) inputValue(ref string) string {
	if val, ok := b.inputs[ref]; ok && val != "" {
		return val
	}
	if val, ok := b.gen.Generate(ref, b.hints[ref]); ok {
		return val
	}
	return "test123"
}

// Explore is the event-injection loop: weighted clicks dominate, text
// entries use resolved values, BACK and dialog dismissal keep their Monkey
// share, and crashes or exits restart the app. Each event bills one test
// case so the coverage curve is indexed by events injected.
func (b *Biased) Explore(s *session.Session) error {
	b.rng = rand.New(rand.NewSource(b.seed))
	d := s.NewDevice()

	observe := func() {
		if cur, err := d.CurrentActivity(); err == nil && !b.visited[cur] {
			b.visited[cur] = true
			s.Trace(session.Event{Kind: session.KindVisit, Activity: cur,
				Msg: fmt.Sprintf("biased reached %s", cur)})
		}
	}

	if err := d.LaunchMain(); err != nil {
		return fmt.Errorf("strategy: biased launch: %w", err)
	}
	observe()
	s.SampleCurve()

	restarts := 0
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
		switch p := b.rng.Intn(100); {
		case p < 70: // weighted click
			ref, ok := b.pickClick(dump)
			if !ok {
				_ = d.Back()
				break
			}
			b.clicks[ref]++
			_ = d.Click(ref)
		case p < 85: // hint-aware text
			refs := dump.EditableRefs()
			if len(refs) == 0 {
				break
			}
			ref := refs[b.rng.Intn(len(refs))]
			ev := session.Event{Kind: session.KindInputFill, Ref: ref, Value: b.inputValue(ref)}
			if err := d.EnterText(ref, ev.Value); err != nil {
				ev.Err = err.Error()
			}
			s.Trace(ev)
		case p < 95: // back
			_ = d.Back()
		default: // dialog dismissal
			if d.HasDialog() {
				_ = d.DismissDialog()
			}
		}
		observe()
		return nil
	}

	for i := 0; i < b.events; i++ {
		s.AddTestCases(1)
		if err := step(); err != nil {
			return err
		}
		s.SampleCurve()
	}

	s.AddSteps(d.Steps())
	s.Notef("biased done: %d events, %d crashes, %d restarts", b.events, s.Stats().Crashes, restarts)
	return nil
}
