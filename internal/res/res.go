// Package res implements the resource-ID table of a synthetic Android
// application package. It plays the role of the generated R class in a real
// Android build: every identifiable resource (widget ID, layout, string,
// drawable) is assigned a unique 32-bit number, and references of the form
// "@id/name", "@layout/name", ... are resolved against the table.
//
// FragDroid's resource-dependency extraction (Algorithm 3 of the paper)
// matches widgets to their host Activities and Fragments purely through
// resource IDs, so the table is shared between the static-analysis and
// dynamic-execution halves of the system.
package res

import (
	"fmt"
	"strings"
)

// Kind classifies a resource entry, mirroring the R.<kind> namespaces of a
// real Android resource table.
type Kind int

const (
	// KindID identifies view/widget IDs (R.id.*).
	KindID Kind = iota + 1
	// KindLayout identifies layout files (R.layout.*).
	KindLayout
	// KindString identifies string resources (R.string.*).
	KindString
	// KindDrawable identifies drawable resources (R.drawable.*).
	KindDrawable
	// KindMenu identifies menu resources (R.menu.*).
	KindMenu
)

// kindNames is indexed by Kind; the known kinds are KindID..KindMenu.
var kindNames = [...]string{
	KindID:       "id",
	KindLayout:   "layout",
	KindString:   "string",
	KindDrawable: "drawable",
	KindMenu:     "menu",
}

// known reports whether k is one of the kinds above.
func (k Kind) known() bool { return k >= KindID && k <= KindMenu }

// String returns the R-namespace name of the kind ("id", "layout", ...).
func (k Kind) String() string {
	if k.known() {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromName maps an R-namespace name back to its Kind. The boolean result
// reports whether the name is known.
func KindFromName(name string) (Kind, bool) {
	for k := KindID; k <= KindMenu; k++ {
		if kindNames[k] == name {
			return k, true
		}
	}
	return 0, false
}

// ID is a resolved resource identifier. Like Android's aapt numbering, the
// kind is encoded in the upper bits so IDs of different kinds never collide.
type ID uint32

// base offsets per kind, in the spirit of aapt's 0x7fTTEEEE scheme.
const (
	idBase    = 0x7f080000
	kindShift = 16
)

// Kind extracts the resource kind encoded in the ID.
func (id ID) Kind() Kind {
	return Kind((uint32(id) - idBase) >> kindShift)
}

// Valid reports whether the ID carries a known kind encoding.
func (id ID) Valid() bool {
	return uint32(id) >= idBase && id.Kind().known()
}

// Entry is a single named resource in the table.
type Entry struct {
	Kind Kind
	Name string
	ID   ID
}

// refKey is the composite (kind, name) lookup key. A comparable struct key
// avoids the per-lookup string concatenation a "kind/name" key would cost on
// the resolve-heavy static-analysis paths.
type refKey struct {
	kind Kind
	name string
}

// Table allocates and resolves resource IDs. The zero value is not ready for
// use; call NewTable.
type Table struct {
	byRef map[refKey]ID
	// byKind holds each kind's entries in ID order: the low bits of an ID
	// index its kind's slice, whose length is the kind's next number.
	byKind [KindMenu + 1][]Entry
}

// NewTable returns an empty resource table.
func NewTable() *Table {
	return NewTableSized(0)
}

// NewTableSized returns an empty resource table pre-sized for about hint
// entries, so bulk loaders (the artifact-store decoder knows the final entry
// count up front) avoid growing the lookup map incrementally.
func NewTableSized(hint int) *Table {
	return &Table{byRef: make(map[refKey]ID, hint)}
}

// Define allocates an ID for (kind, name), or returns the existing one if the
// pair is already defined. Names must be non-empty.
func (t *Table) Define(kind Kind, name string) (ID, error) {
	if name == "" {
		return 0, fmt.Errorf("res: empty resource name for kind %s", kind)
	}
	if !kind.known() {
		return 0, fmt.Errorf("res: unknown resource kind %d", int(kind))
	}
	key := refKey{kind, name}
	if id, ok := t.byRef[key]; ok {
		return id, nil
	}
	entries := t.byKind[kind]
	id := ID(idBase + uint32(kind)<<kindShift + uint32(len(entries)))
	t.byKind[kind] = append(entries, Entry{Kind: kind, Name: name, ID: id})
	t.byRef[key] = id
	return id, nil
}

// MustDefine is Define for callers constructing tables from trusted,
// programmatic input (e.g. the corpus builders). It panics on error.
func (t *Table) MustDefine(kind Kind, name string) ID {
	id, err := t.Define(kind, name)
	if err != nil {
		panic(err)
	}
	return id
}

// Lookup resolves (kind, name) to its ID. The boolean result reports whether
// the resource is defined.
func (t *Table) Lookup(kind Kind, name string) (ID, bool) {
	id, ok := t.byRef[refKey{kind, name}]
	return id, ok
}

// NameOf returns the entry for id. The boolean result reports whether the ID
// is defined in this table.
func (t *Table) NameOf(id ID) (Entry, bool) {
	if !id.Valid() {
		return Entry{}, false
	}
	k := id.Kind()
	n := uint32(id) - idBase - uint32(k)<<kindShift
	if es := t.byKind[k]; n < uint32(len(es)) {
		return es[n], true
	}
	return Entry{}, false
}

// Resolve parses and resolves a textual reference of the form "@kind/name"
// (for example "@id/btn_login" or "@layout/main"). Undefined references are
// an error: the static analyzer treats a dangling reference as a malformed
// package.
func (t *Table) Resolve(ref string) (ID, error) {
	kind, name, err := ParseRef(ref)
	if err != nil {
		return 0, err
	}
	id, ok := t.Lookup(kind, name)
	if !ok {
		return 0, &UnresolvedError{Ref: ref}
	}
	return id, nil
}

// ResolveOrDefine parses ref and resolves it, defining it first if absent.
// Layout loaders use this so that layouts may introduce fresh widget IDs, as
// "@+id/name" does in real Android layout files.
func (t *Table) ResolveOrDefine(ref string) (ID, error) {
	kind, name, err := ParseRef(ref)
	if err != nil {
		return 0, err
	}
	return t.Define(kind, name)
}

// ParseRef splits a "@kind/name" reference into its parts. A leading "@+" is
// accepted as a synonym for "@" (new-ID syntax).
func ParseRef(ref string) (Kind, string, error) {
	s := ref
	switch {
	case strings.HasPrefix(s, "@+"):
		s = s[2:]
	case strings.HasPrefix(s, "@"):
		s = s[1:]
	default:
		return 0, "", fmt.Errorf("res: reference %q does not start with '@'", ref)
	}
	slash := strings.IndexByte(s, '/')
	if slash <= 0 || slash == len(s)-1 {
		return 0, "", fmt.Errorf("res: malformed reference %q, want @kind/name", ref)
	}
	kindName, name := s[:slash], s[slash+1:]
	kind, ok := KindFromName(kindName)
	if !ok {
		return 0, "", fmt.Errorf("res: unknown resource kind %q in %q", kindName, ref)
	}
	return kind, name, nil
}

// Ref renders the entry as a "@kind/name" reference.
func (e Entry) Ref() string {
	return "@" + e.Kind.String() + "/" + e.Name
}

// Entries returns all defined resources sorted by ID. The slice is a copy.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, t.Len())
	for _, es := range t.byKind {
		out = append(out, es...)
	}
	return out
}

// Len reports the number of defined resources.
func (t *Table) Len() int { return len(t.byRef) }

// Clone returns a deep copy of the table. The explorer clones tables so that
// per-run definitions (e.g. patched manifests) never leak between runs.
func (t *Table) Clone() *Table {
	nt := NewTableSized(len(t.byRef))
	for k, v := range t.byRef {
		nt.byRef[k] = v
	}
	for k, es := range t.byKind {
		nt.byKind[k] = append([]Entry(nil), es...)
	}
	return nt
}

// UnresolvedError reports a reference to a resource that is not defined.
type UnresolvedError struct {
	Ref string
}

func (e *UnresolvedError) Error() string {
	return fmt.Sprintf("res: unresolved resource reference %q", e.Ref)
}
