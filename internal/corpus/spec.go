// Package corpus generates the synthetic applications the evaluation runs
// on: a spec-driven app builder, the 15 apps mirroring Table I of the paper,
// the 217-app fragment-usage study corpus, and a seeded random-app generator
// for property tests. BuildArchive serializes a spec with the real encoders;
// BuildApp assembles the same App directly in memory (validated by the same
// parser-grade checks — see apk.Assemble), skipping the serialize-reparse
// round trip. TestBuildAppMatchesArchiveRoundTrip pins the two paths to
// identical output.
package corpus

import (
	"fmt"
	"slices"
)

// TransKind describes how an Activity → Activity transition is exposed in
// the UI.
type TransKind int

const (
	// TransButton is a plain visible button (XML onClick).
	TransButton TransKind = iota + 1
	// TransDrawerButton is a button inside a hidden navigation drawer that
	// has a visible toggle (Figure 2: reachable once the drawer is opened).
	TransDrawerButton
	// TransSlideDrawer is a button inside a hidden drawer with no toggle
	// (material-design slide gesture only); click exploration cannot reach
	// it, modelling the paper's "navigation view drawer cannot be operated
	// directly" misses.
	TransSlideDrawer
	// TransAction starts the target through an implicit intent action.
	TransAction
)

// WireKind describes how a Fragment is wired into its host Activity.
type WireKind int

const (
	// WireTxnOnCreate commits the fragment in the host's onCreate.
	WireTxnOnCreate WireKind = iota + 1
	// WireTxnButton commits the fragment from a visible tab button whose
	// listener is registered in code (Figure 1 tab switching).
	WireTxnButton
	// WireTxnDrawer commits the fragment from a toggleable hidden drawer.
	WireTxnDrawer
	// WireTxnSlideDrawer commits the fragment from a slide-only drawer; only
	// the reflection mechanism can reach it (Figure 2 / §VI-A Case 2).
	WireTxnSlideDrawer
	// WireInflate loads the fragment's view directly without a
	// FragmentManager (the com.mobilemotion.dubsmash failure mode).
	WireInflate
	// WireStatic declares the fragment in the layout XML.
	WireStatic
	// WireReferenceOnly only references the fragment class in code
	// (new-instance); it is never committed at runtime.
	WireReferenceOnly
)

// InputGate guards a transition behind a correct text input (§V-C: only the
// correct account information lets the test move on).
type InputGate struct {
	// Field is the EditText ref; empty means "derive a default name".
	Field string
	// Expected is the value that lets the transition proceed.
	Expected string
	// Hint is the EditText hint text; empty derives "code for <target>".
	// Hint-keyed gates pair with the inputgen heuristics.
	Hint string
}

// Transition is one Activity → Activity edge of the app.
type Transition struct {
	From, To string
	Kind     TransKind
	// Action is the intent action for TransAction.
	Action string
	// Gate optionally input-gates the transition.
	Gate *InputGate
}

// FragmentWire attaches a Fragment to an Activity.
type FragmentWire struct {
	Fragment string
	Kind     WireKind
}

// FragmentSwitch is an F → F transition inside one Activity: a button in the
// fragment's own layout replaces it with the target fragment.
type FragmentSwitch struct {
	From, To string
}

// ActivitySpec describes one Activity.
type ActivitySpec struct {
	// Name is the simple class name; the package is prepended.
	Name string
	// Launcher marks the entry activity (exactly one per app).
	Launcher bool
	// Isolated declares the activity in the manifest without any edges; the
	// static phase filters it out as invalid.
	Isolated bool
	// RequiresExtra names an intent extra checked in onCreate; forced starts
	// with empty intents crash on it.
	RequiresExtra string
	// SupportFM selects getSupportFragmentManager over getFragmentManager.
	SupportFM bool
	// PopupOnCreate opens an action-bar popup in onCreate, interfering with
	// UI driving (the com.adobe.reader app-bar behaviour).
	PopupOnCreate bool
	// DeepLink declares a URI this activity accepts through a VIEW intent
	// filter (e.g. "app://pkg/act"), making it an external entry point
	// alongside the launcher — the family corpus' deep-link scenario axis.
	DeepLink string
	// Sensitive lists sensitive APIs invoked in onCreate.
	Sensitive []string
	// Wires lists the fragments hosted by this activity.
	Wires []FragmentWire
}

// FragmentSpec describes one Fragment.
type FragmentSpec struct {
	Name string
	// RequiresArgs marks fragments whose instantiation needs parameters;
	// reflective switching fails on them (the com.inditex.zara failure).
	RequiresArgs bool
	// Sensitive lists sensitive APIs invoked in onCreateView.
	Sensitive []string
}

// ReceiverSpec describes a BroadcastReceiver component: the system/app
// events it subscribes to, the sensitive APIs its onReceive invokes, and an
// optional activity it starts (receivers launching UI on events is a common
// malware pattern the sensitive-API analysis wants to see).
type ReceiverSpec struct {
	Name      string
	Actions   []string
	Sensitive []string
	// StartsActivity optionally names an activity onReceive launches.
	StartsActivity string
}

// AppSpec is the complete description of a synthetic app.
type AppSpec struct {
	// Package is the application package name.
	Package string
	// Downloads is carried into reports (Table I column).
	Downloads string
	// Activities, Fragments, Transitions and Switches define the structure.
	Activities []ActivitySpec
	Fragments  []FragmentSpec
	Receivers  []ReceiverSpec
	Transition []Transition
	Switches   []FragmentSwitch
	// Packed marks the app packer-protected (ruled out of analysis).
	Packed bool
}

// Validate checks referential integrity of the spec.
func (s *AppSpec) Validate() error {
	_, err := s.validate(nil)
	return err
}

// specIndex is a spec's activity and fragment names, sorted, each with its
// places in the spec. validate fills it as it checks the spec, and
// newGenerator resolves every name the spec links by through it. A name is
// found by binary search, so the index hashes nothing, and its backing
// array can live on the caller's stack.
type specIndex []specEntry

// specEntry is one name with 1 + an index, or 0 for none: act into
// Activities, frag into Fragments, and host into Activities for the first
// activity wiring the fragment. An activity and a fragment may share a
// name, so one entry holds both.
type specEntry struct {
	name            string
	act, frag, host int32
}

// specIndexSize is the index capacity BuildApp and BuildArchive keep on
// their stacks. A family member has at most 13 activities and fragments; a
// larger spec's index moves to the heap as it grows.
const specIndexSize = 16

// find returns the position of name's entry, or where it would go.
func (x specIndex) find(name string) (int, bool) {
	lo, hi := 0, len(x)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x[m].name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(x) && x[lo].name == name
}

// at returns the entry of name, or the zero entry if it has none.
func (x specIndex) at(name string) specEntry {
	if i, ok := x.find(name); ok {
		return x[i]
	}
	return specEntry{}
}

// slot returns x with an entry for name, added in order if it had none,
// and that entry's position.
func (x specIndex) slot(name string) (specIndex, int) {
	i, ok := x.find(name)
	if !ok {
		x = slices.Insert(x, i, specEntry{name: name})
	}
	return x, i
}

// validate checks the spec and returns its index, built in buf's backing
// array while it fits.
func (s *AppSpec) validate(buf []specEntry) (specIndex, error) {
	if s.Package == "" {
		return nil, fmt.Errorf("corpus: spec without package")
	}
	idx := specIndex(buf[:0])
	var e int // the entry slot just found or added
	links := make(map[string]string)
	launchers := 0
	for i := range s.Activities {
		a := &s.Activities[i]
		if a.Name == "" {
			return nil, fmt.Errorf("corpus: %s: activity with empty name", s.Package)
		}
		if idx, e = idx.slot(a.Name); idx[e].act != 0 {
			return nil, fmt.Errorf("corpus: %s: duplicate activity %s", s.Package, a.Name)
		}
		idx[e].act = int32(i + 1)
		if a.Launcher {
			launchers++
		}
		if a.DeepLink != "" {
			if other, dup := links[a.DeepLink]; dup {
				return nil, fmt.Errorf("corpus: %s: deep link %s claimed by both %s and %s",
					s.Package, a.DeepLink, other, a.Name)
			}
			links[a.DeepLink] = a.Name
		}
	}
	if launchers != 1 {
		return nil, fmt.Errorf("corpus: %s: want exactly 1 launcher, have %d", s.Package, launchers)
	}
	for i := range s.Fragments {
		f := &s.Fragments[i]
		if f.Name == "" {
			return nil, fmt.Errorf("corpus: %s: fragment with empty name", s.Package)
		}
		if idx, e = idx.slot(f.Name); idx[e].frag != 0 {
			return nil, fmt.Errorf("corpus: %s: duplicate fragment %s", s.Package, f.Name)
		}
		idx[e].frag = int32(i + 1)
	}
	for _, tr := range s.Transition {
		from, to := idx.at(tr.From).act, idx.at(tr.To).act
		if from == 0 || to == 0 {
			return nil, fmt.Errorf("corpus: %s: transition %s->%s references unknown activity", s.Package, tr.From, tr.To)
		}
		if tr.From == tr.To {
			return nil, fmt.Errorf("corpus: %s: self transition on %s", s.Package, tr.From)
		}
		if tr.Kind == TransAction && tr.Action == "" {
			return nil, fmt.Errorf("corpus: %s: action transition %s->%s without action", s.Package, tr.From, tr.To)
		}
		if s.Activities[from-1].Isolated || s.Activities[to-1].Isolated {
			return nil, fmt.Errorf("corpus: %s: transition touches isolated activity (%s->%s)", s.Package, tr.From, tr.To)
		}
	}
	for i := range s.Activities {
		a := &s.Activities[i]
		for _, w := range a.Wires {
			j, ok := idx.find(w.Fragment)
			if !ok || idx[j].frag == 0 {
				return nil, fmt.Errorf("corpus: %s: activity %s wires unknown fragment %s", s.Package, a.Name, w.Fragment)
			}
			if idx[j].host == 0 {
				idx[j].host = int32(i + 1)
			}
		}
	}
	for _, r := range s.Receivers {
		if r.Name == "" {
			return nil, fmt.Errorf("corpus: %s: receiver with empty name", s.Package)
		}
		if c := idx.at(r.Name); c.act != 0 || c.frag != 0 {
			return nil, fmt.Errorf("corpus: %s: receiver %s collides with another component", s.Package, r.Name)
		}
		if len(r.Actions) == 0 {
			return nil, fmt.Errorf("corpus: %s: receiver %s subscribes to nothing", s.Package, r.Name)
		}
		if r.StartsActivity != "" && idx.at(r.StartsActivity).act == 0 {
			return nil, fmt.Errorf("corpus: %s: receiver %s starts unknown activity %s", s.Package, r.Name, r.StartsActivity)
		}
	}
	for _, sw := range s.Switches {
		from, to := idx.at(sw.From), idx.at(sw.To)
		if from.frag == 0 || to.frag == 0 {
			return nil, fmt.Errorf("corpus: %s: switch %s->%s references unknown fragment", s.Package, sw.From, sw.To)
		}
		if from.host == 0 || to.host == 0 {
			return nil, fmt.Errorf("corpus: %s: switch %s->%s on unwired fragment", s.Package, sw.From, sw.To)
		}
		if from.host != to.host {
			return nil, fmt.Errorf("corpus: %s: switch %s->%s crosses hosts %s/%s", s.Package, sw.From, sw.To,
				s.Activities[from.host-1].Name, s.Activities[to.host-1].Name)
		}
	}
	return idx, nil
}
