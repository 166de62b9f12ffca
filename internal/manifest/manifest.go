// Package manifest models the AndroidManifest.xml of a synthetic application
// package. The static-extraction phase of FragDroid reads the manifest to
// enumerate declared Activities (paper §IV-B2), to resolve implicit Intent
// actions to their target Activities (Algorithm 1's "find A1 in
// AndroidManifest.xml by action"), and to locate the MAIN/LAUNCHER entry
// Activity. The explorer additionally patches the manifest so every Activity
// carries a MAIN action, enabling forced `am start -n` launches (§VI-A,
// third launch method).
package manifest

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strings"
)

// Well-known intent actions and categories.
const (
	ActionMain        = "android.intent.action.MAIN"
	ActionView        = "android.intent.action.VIEW"
	CategoryLauncher  = "android.intent.category.LAUNCHER"
	CategoryBrowsable = "android.intent.category.BROWSABLE"
	CategoryDefault   = "android.intent.category.DEFAULT"
)

// Manifest is the parsed AndroidManifest.xml.
type Manifest struct {
	XMLName     xml.Name     `xml:"manifest"`
	Package     string       `xml:"package,attr"`
	VersionName string       `xml:"versionName,attr,omitempty"`
	Permissions []Permission `xml:"uses-permission"`
	Application Application  `xml:"application"`
}

// Permission is a uses-permission declaration.
type Permission struct {
	Name string `xml:"name,attr"`
}

// Application holds the component lists.
type Application struct {
	Label      string     `xml:"label,attr,omitempty"`
	Activities []Activity `xml:"activity"`
	Receivers  []Receiver `xml:"receiver"`
}

// Receiver is a declared BroadcastReceiver component.
type Receiver struct {
	// Name is the fully qualified class name.
	Name string `xml:"name,attr"`
	// Filters list the broadcast actions the receiver subscribes to.
	Filters []IntentFilter `xml:"intent-filter"`
}

// Activity is a declared Activity component.
type Activity struct {
	// Name is the fully qualified class name, e.g. "com.example.MainActivity".
	Name string `xml:"name,attr"`
	// Exported mirrors android:exported; forced starts require it or a
	// MAIN-action filter.
	Exported bool `xml:"exported,attr,omitempty"`
	// Filters are the activity's intent filters.
	Filters []IntentFilter `xml:"intent-filter"`
}

// IntentFilter is an intent-filter element.
type IntentFilter struct {
	Actions    []Action   `xml:"action"`
	Categories []Category `xml:"category"`
	// Data lists the deep-link URIs the filter matches (the synthetic format
	// collapses android:scheme/host/path into one uri attribute).
	Data []Data `xml:"data"`
}

// Data is an intent-filter data element carrying a deep-link URI.
type Data struct {
	URI string `xml:"uri,attr"`
}

// Action is an intent-filter action element.
type Action struct {
	Name string `xml:"name,attr"`
}

// Category is an intent-filter category element.
type Category struct {
	Name string `xml:"name,attr"`
}

// Parse decodes an AndroidManifest.xml document and validates it.
func Parse(data []byte) (*Manifest, error) {
	var m Manifest
	if err := xml.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: parse: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// Encode renders the manifest back to XML.
func (m *Manifest) Encode() ([]byte, error) {
	out, err := xml.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("manifest: encode: %w", err)
	}
	return append([]byte(xml.Header), append(out, '\n')...), nil
}

// Validate checks structural invariants: non-empty package, non-empty unique
// activity names.
func (m *Manifest) Validate() error {
	if m.Package == "" {
		return fmt.Errorf("manifest: missing package attribute")
	}
	seen := make(map[string]bool, len(m.Application.Activities))
	for _, a := range m.Application.Activities {
		if a.Name == "" {
			return fmt.Errorf("manifest: activity with empty name in %s", m.Package)
		}
		if seen[a.Name] {
			return fmt.Errorf("manifest: duplicate activity %s", a.Name)
		}
		seen[a.Name] = true
	}
	for _, r := range m.Application.Receivers {
		if r.Name == "" {
			return fmt.Errorf("manifest: receiver with empty name in %s", m.Package)
		}
		if seen[r.Name] {
			return fmt.Errorf("manifest: duplicate component %s", r.Name)
		}
		seen[r.Name] = true
	}
	return nil
}

// ReceiversFor returns the receiver classes subscribed to the action.
func (m *Manifest) ReceiversFor(action string) []string {
	var out []string
	for _, r := range m.Application.Receivers {
		for _, f := range r.Filters {
			for _, a := range f.Actions {
				if a.Name == action {
					out = append(out, r.Name)
				}
			}
		}
	}
	return out
}

// BroadcastActions lists every action some receiver subscribes to, sorted
// and deduplicated — the event vocabulary a Dynodroid-style injector uses.
func (m *Manifest) BroadcastActions() []string {
	set := make(map[string]bool)
	for _, r := range m.Application.Receivers {
		for _, f := range r.Filters {
			for _, a := range f.Actions {
				set[a.Name] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// ActivityNames returns declared activity class names in declaration order.
func (m *Manifest) ActivityNames() []string {
	out := make([]string, 0, len(m.Application.Activities))
	for _, a := range m.Application.Activities {
		out = append(out, a.Name)
	}
	return out
}

// HasActivity reports whether name is a declared activity.
func (m *Manifest) HasActivity(name string) bool {
	for _, a := range m.Application.Activities {
		if a.Name == name {
			return true
		}
	}
	return false
}

// hasActionCategory reports whether the activity declares the given action
// and, when category is non-empty, the given category inside one filter.
func hasActionCategory(a Activity, action, category string) bool {
	for _, f := range a.Filters {
		actionOK := false
		for _, act := range f.Actions {
			if act.Name == action {
				actionOK = true
				break
			}
		}
		if !actionOK {
			continue
		}
		if category == "" {
			return true
		}
		for _, c := range f.Categories {
			if c.Name == category {
				return true
			}
		}
	}
	return false
}

// EntryActivity returns the MAIN/LAUNCHER activity name. It is an error if
// the manifest declares none (such packages are not startable) or more than
// one (ambiguous entry; the paper's model has a single entry node A0).
func (m *Manifest) EntryActivity() (string, error) {
	var found []string
	for _, a := range m.Application.Activities {
		if hasActionCategory(a, ActionMain, CategoryLauncher) {
			found = append(found, a.Name)
		}
	}
	switch len(found) {
	case 0:
		return "", fmt.Errorf("manifest: %s has no MAIN/LAUNCHER activity", m.Package)
	case 1:
		return found[0], nil
	default:
		return "", fmt.Errorf("manifest: %s has %d launcher activities: %s",
			m.Package, len(found), strings.Join(found, ", "))
	}
}

// ActivityForAction resolves an implicit intent action string to the first
// declared activity whose intent filter contains it (Algorithm 1: "find A1 in
// AndroidManifest.xml by action"). The boolean result reports success.
func (m *Manifest) ActivityForAction(action string) (string, bool) {
	for _, a := range m.Application.Activities {
		if hasActionCategory(a, action, "") {
			return a.Name, true
		}
	}
	return "", false
}

// ActivityForURI resolves a deep-link URI to the first declared activity
// whose VIEW intent filter carries a matching data element — the entry-point
// lookup a deep-link launch performs. The boolean result reports success.
func (m *Manifest) ActivityForURI(uri string) (string, bool) {
	for _, a := range m.Application.Activities {
		for _, f := range a.Filters {
			viewOK := false
			for _, act := range f.Actions {
				if act.Name == ActionView {
					viewOK = true
					break
				}
			}
			if !viewOK {
				continue
			}
			for _, d := range f.Data {
				if d.URI == uri {
					return a.Name, true
				}
			}
		}
	}
	return "", false
}

// DeepLinkURIs lists every URI some activity's VIEW filter matches, sorted
// and deduplicated — the deep-link entry vocabulary of the app.
func (m *Manifest) DeepLinkURIs() []string {
	set := make(map[string]bool)
	for _, a := range m.Application.Activities {
		for _, f := range a.Filters {
			viewOK := false
			for _, act := range f.Actions {
				if act.Name == ActionView {
					viewOK = true
					break
				}
			}
			if !viewOK {
				continue
			}
			for _, d := range f.Data {
				set[d.URI] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// ForceStartable reports whether the activity may be started directly with an
// explicit component intent from outside the app: it must be exported or
// carry a MAIN action.
func (m *Manifest) ForceStartable(name string) bool {
	for _, a := range m.Application.Activities {
		if a.Name != name {
			continue
		}
		return a.Exported || hasActionCategory(a, ActionMain, "")
	}
	return false
}

// PatchAllMain returns a deep copy of the manifest in which every activity
// carries an <action android:name="android.intent.action.MAIN"/> filter.
// This reproduces the paper's static-phase manifest modification that lets
// FragDroid forcibly start otherwise unreachable Activities with
// `am start -n <COMPONENT>` during the second dynamic loop.
func (m *Manifest) PatchAllMain() *Manifest {
	cp := m.Clone()
	for i := range cp.Application.Activities {
		a := &cp.Application.Activities[i]
		if hasActionCategory(*a, ActionMain, "") {
			continue
		}
		a.Filters = append(a.Filters, IntentFilter{Actions: []Action{{Name: ActionMain}}})
	}
	return cp
}

// Clone returns a deep copy of the manifest.
func (m *Manifest) Clone() *Manifest {
	cp := *m
	cp.Permissions = append([]Permission(nil), m.Permissions...)
	cp.Application.Receivers = make([]Receiver, len(m.Application.Receivers))
	for i, r := range m.Application.Receivers {
		nr := r
		nr.Filters = make([]IntentFilter, len(r.Filters))
		for j, f := range r.Filters {
			nr.Filters[j] = IntentFilter{
				Actions:    append([]Action(nil), f.Actions...),
				Categories: append([]Category(nil), f.Categories...),
				Data:       append([]Data(nil), f.Data...),
			}
		}
		cp.Application.Receivers[i] = nr
	}
	cp.Application.Activities = make([]Activity, len(m.Application.Activities))
	for i, a := range m.Application.Activities {
		na := a
		na.Filters = make([]IntentFilter, len(a.Filters))
		for j, f := range a.Filters {
			nf := IntentFilter{
				Actions:    append([]Action(nil), f.Actions...),
				Categories: append([]Category(nil), f.Categories...),
				Data:       append([]Data(nil), f.Data...),
			}
			na.Filters[j] = nf
		}
		cp.Application.Activities[i] = na
	}
	return &cp
}

// Builder assembles manifests programmatically; the corpus generators use it.
type Builder struct {
	m Manifest
}

// NewBuilder starts a manifest for the given package name.
func NewBuilder(pkg string) *Builder {
	return &Builder{m: Manifest{Package: pkg, VersionName: "1.0"}}
}

// Permission records a uses-permission entry.
func (b *Builder) Permission(name string) *Builder {
	b.m.Permissions = append(b.m.Permissions, Permission{Name: name})
	return b
}

// Launcher adds the entry activity with a MAIN/LAUNCHER filter.
func (b *Builder) Launcher(name string) *Builder {
	b.m.Application.Activities = append(b.m.Application.Activities, Activity{
		Name: name,
		Filters: []IntentFilter{{
			Actions:    []Action{{Name: ActionMain}},
			Categories: []Category{{Name: CategoryLauncher}},
		}},
	})
	return b
}

// Activity adds a plain activity.
func (b *Builder) Activity(name string) *Builder {
	b.m.Application.Activities = append(b.m.Application.Activities, Activity{Name: name})
	return b
}

// ActivityWithAction adds an activity carrying an intent filter for action.
func (b *Builder) ActivityWithAction(name, action string) *Builder {
	b.m.Application.Activities = append(b.m.Application.Activities, Activity{
		Name:    name,
		Filters: []IntentFilter{{Actions: []Action{{Name: action}}}},
	})
	return b
}

// ExportedActivity adds an exported activity.
func (b *Builder) ExportedActivity(name string) *Builder {
	b.m.Application.Activities = append(b.m.Application.Activities, Activity{
		Name: name, Exported: true,
	})
	return b
}

// Build validates and returns the manifest.
func (b *Builder) Build() (*Manifest, error) {
	m := b.m.Clone()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
