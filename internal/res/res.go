// Package res is the resource-reference grammar of a synthetic Android
// application package. References of the form "@id/name", "@layout/name",
// ... name resources, and nothing numbers them: where a real Android build
// assigns each resource a 32-bit ID in the generated R class, this system
// keys every widget and layout by its normalized reference string.
//
// FragDroid's resource-dependency extraction (Algorithm 3 of the paper)
// matches widgets to their host Activities and Fragments through their
// resource IDs, so the static-analysis and dynamic-execution halves of the
// system agree on one spelling of each reference.
package res

import (
	"fmt"
	"strings"
)

// Kind classifies a resource reference, mirroring the R.<kind> namespaces
// of a real Android build.
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

// UnresolvedError reports a reference to a resource that is not defined.
type UnresolvedError struct {
	Ref string
}

func (e *UnresolvedError) Error() string {
	return fmt.Sprintf("res: unresolved resource reference %q", e.Ref)
}
