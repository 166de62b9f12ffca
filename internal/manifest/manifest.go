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

	"fragdroid/internal/xmlscan"
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

// Parse decodes an AndroidManifest.xml document and validates it. A
// document in the dialect Encode writes is read by xmlscan in one pass; any
// other goes through encoding/xml, which gives the same manifest or error
// for it.
func Parse(data []byte) (*Manifest, error) {
	m, ok := scanManifest(data)
	if !ok {
		return parseXML(data)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// scanManifest builds the manifest of a document inside the xmlscan dialect
// that has only the elements and attributes Encode writes, nested as Encode
// nests them, with one <application> and exported only ever "true". It
// reports false for any other document; xml.Unmarshal reads those.
func scanManifest(data []byte) (*Manifest, bool) {
	s := xmlscan.New(data)
	m := &Manifest{XMLName: xml.Name{Local: "manifest"}}
	var (
		hasApp  bool
		filters *[]IntentFilter // of the latest activity or receiver
		filter  *IntentFilter   // the latest intent-filter
	)
	for {
		switch s.Next() {
		case xmlscan.Start:
		case xmlscan.End:
			continue
		case xmlscan.Done:
			return m, true
		default:
			return nil, false
		}
		name, parent, attrs := s.Name(), s.Parent(), s.Attrs()
		ok := true
		switch {
		case name == "manifest" && parent == "":
			for _, a := range attrs {
				switch a.Name {
				case "package":
					m.Package = a.Value
				case "versionName":
					m.VersionName = a.Value
				default:
					return nil, false
				}
			}
		case name == "uses-permission" && parent == "manifest":
			var p Permission
			p.Name, ok = onlyAttr(attrs, "name")
			m.Permissions = append(m.Permissions, p)
		case name == "application" && parent == "manifest" && !hasApp:
			hasApp = true
			for _, a := range attrs {
				if a.Name != "label" {
					return nil, false
				}
				m.Application.Label = a.Value
			}
		case name == "activity" && parent == "application":
			var act Activity
			for _, a := range attrs {
				switch a.Name {
				case "name":
					act.Name = a.Value
				case "exported":
					if a.Value != "true" {
						return nil, false
					}
					act.Exported = true
				default:
					return nil, false
				}
			}
			acts := &m.Application.Activities
			*acts = append(*acts, act)
			filters = &(*acts)[len(*acts)-1].Filters
		case name == "receiver" && parent == "application":
			var r Receiver
			r.Name, ok = onlyAttr(attrs, "name")
			rs := &m.Application.Receivers
			*rs = append(*rs, r)
			filters = &(*rs)[len(*rs)-1].Filters
		case name == "intent-filter" && (parent == "activity" || parent == "receiver"):
			ok = len(attrs) == 0
			*filters = append(*filters, IntentFilter{})
			filter = &(*filters)[len(*filters)-1]
		case name == "action" && parent == "intent-filter":
			var a Action
			a.Name, ok = onlyAttr(attrs, "name")
			filter.Actions = append(filter.Actions, a)
		case name == "category" && parent == "intent-filter":
			var c Category
			c.Name, ok = onlyAttr(attrs, "name")
			filter.Categories = append(filter.Categories, c)
		case name == "data" && parent == "intent-filter":
			var d Data
			d.URI, ok = onlyAttr(attrs, "uri")
			filter.Data = append(filter.Data, d)
		default:
			ok = false
		}
		if !ok {
			return nil, false
		}
	}
}

// onlyAttr returns the value of an element's only attribute, which must be
// named want.
func onlyAttr(attrs []xmlscan.Attr, want string) (string, bool) {
	if len(attrs) != 1 || attrs[0].Name != want {
		return "", false
	}
	return attrs[0].Value, true
}

// parseXML decodes a manifest with encoding/xml. It is the reference for
// scanManifest and the only reader of documents outside its dialect.
func parseXML(data []byte) (*Manifest, error) {
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
	var entry string
	var more []string // the launchers after the first; empty on a valid manifest
	n := 0
	for _, a := range m.Application.Activities {
		if !hasActionCategory(a, ActionMain, CategoryLauncher) {
			continue
		}
		if n == 0 {
			entry = a.Name
		} else {
			more = append(more, a.Name)
		}
		n++
	}
	switch n {
	case 0:
		return "", fmt.Errorf("manifest: %s has no MAIN/LAUNCHER activity", m.Package)
	case 1:
		return entry, nil
	}
	return "", fmt.Errorf("manifest: %s has %d launcher activities: %s, %s",
		m.Package, n, entry, strings.Join(more, ", "))
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

// Builder assembles manifests programmatically; tests that build an app by
// hand use it (the corpus generators fill a Manifest directly).
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
