package baseline

import (
	"math/rand"

	"fragdroid/internal/device"
	"fragdroid/internal/inputgen"
	"fragdroid/internal/layout"
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
// isolates the value of the weighting alone. cfg is Monkey's; inputs is the
// analyst input file, which takes precedence over the hint heuristic.
func Biased(ex *statics.Extraction, cfg MonkeyConfig, inputs map[string]string) (*session.Outcome, error) {
	hints := make(map[string]string)
	for _, w := range ex.InputWidgets {
		hints[w.Ref] = w.Hint
	}
	e := NewMonkeyStrategy(ex.App, cfg)
	e.name = "biased"
	e.policy = &weighted{inputs: inputs, hints: hints, clicks: make(map[string]int)}
	return drive(e)
}

// weighted is biased's eventPolicy.
type weighted struct {
	inputs map[string]string
	hints  map[string]string
	gen    inputgen.Heuristic
	clicks map[string]int
}

// weight scores one clickable widget: navigation-bearing kinds start high
// and every previous click on the same ref halves the weight (floor 1), so
// unexplored controls dominate the draw.
func (p *weighted) weight(w device.WidgetInfo) int {
	base := 2
	switch w.Type {
	case layout.TypeButton, layout.TypeImageButton:
		base = 8
	case layout.TypeMenuItem, layout.TypeTabItem:
		base = 6
	case layout.TypeCheckBox, layout.TypeSpinner, layout.TypeListView:
		base = 4
	}
	return max(base>>p.clicks[w.Ref], 1)
}

// click draws a clickable widget with probability proportional to its
// weight and counts the click for the decay.
func (p *weighted) click(rng *rand.Rand, dump device.UIDump) (string, bool) {
	total := 0
	for _, w := range dump.Widgets {
		if w.Visible && w.Clickable {
			total += p.weight(w)
		}
	}
	if total == 0 {
		return "", false
	}
	n := rng.Intn(total)
	for _, w := range dump.Widgets {
		if !w.Visible || !w.Clickable {
			continue
		}
		if n -= p.weight(w); n < 0 {
			p.clicks[w.Ref]++
			return w.Ref, true
		}
	}
	panic("baseline: weighted draw beyond the total weight")
}

// enterText types the analyst's value for the field, else the hint
// heuristic's, else "test123", and traces the fill.
func (p *weighted) enterText(s *session.Session, d *device.Device, _ *rand.Rand, ref string) {
	val, ok := p.inputs[ref]
	if !ok || val == "" {
		if val, ok = p.gen.Generate(ref, p.hints[ref]); !ok {
			val = "test123"
		}
	}
	ev := session.Event{Kind: session.KindInputFill, Ref: ref, Value: val}
	if err := d.EnterText(ref, val); err != nil {
		ev.Err = err.Error()
	}
	s.Trace(ev)
}
