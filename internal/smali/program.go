package smali

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Well-known framework classes. Classes in the android.* / java.* namespaces
// are framework classes: they are referenced by .super and .implements lines
// but have no .smali file of their own.
const (
	ClassActivity         = "android.app.Activity"
	ClassFragment         = "android.app.Fragment"
	ClassSupportFragment  = "android.support.v4.app.Fragment"
	ClassFragmentActivity = "android.support.v4.app.FragmentActivity"
	ClassObject           = "java.lang.Object"
	ClassReceiver         = "android.content.BroadcastReceiver"
)

// FrameworkClass reports whether name belongs to the simulated framework
// rather than to application code.
func FrameworkClass(name string) bool {
	return strings.HasPrefix(name, "android.") || strings.HasPrefix(name, "java.")
}

// Instr is one instruction inside a method body.
type Instr struct {
	Op   Op
	Args []string
	Line int // 1-based source line, for diagnostics
}

// String renders the instruction in source form.
func (i Instr) String() string {
	if len(i.Args) == 0 {
		return string(i.Op)
	}
	parts := make([]string, 0, 1+len(i.Args))
	parts = append(parts, string(i.Op))
	spec, _ := lookupOp(i.Op)
	for n, a := range i.Args {
		var k argKind
		if n < len(spec) {
			k = argKind(spec[n])
		}
		switch k {
		case argType:
			parts = append(parts, ToDescriptor(a))
		case argStr:
			parts = append(parts, quote(a))
		default:
			parts = append(parts, a)
		}
	}
	return strings.Join(parts, " ")
}

// quote renders a string operand the way tokenize reads it back: newline,
// tab, double quote and backslash are escaped, and every other byte is
// written as it is.
func quote(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 2)
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Method is a named method with an ordered instruction body.
type Method struct {
	Name   string
	Access []string // e.g. ["public"]
	Body   []Instr
}

// Field is a declared field.
type Field struct {
	Name       string
	Descriptor string
	Access     []string
}

// Class is one parsed .smali class.
type Class struct {
	// Name is the dotted class name, e.g. "com.example.MainActivity" or the
	// inner-class form "com.example.MainActivity$1".
	Name string
	// Super is the dotted superclass name.
	Super string
	// Interfaces lists implemented interfaces.
	Interfaces []string
	// Access holds class access flags ("public", "final", ...).
	Access []string
	// RequiresArgs marks fragment classes whose newInstance needs parameters;
	// reflective instantiation of such classes fails (paper §VII-B2, the
	// com.inditex.zara case).
	RequiresArgs bool
	// Fields and Methods preserve declaration order.
	Fields  []Field
	Methods []*Method
	// SourceFile is the archive path the class was parsed from.
	SourceFile string
}

// Check validates a programmatically constructed class the way the parser
// validates source: required directives, identifier-shaped member names, no
// duplicate methods, and per-instruction operand shapes. Classes that come
// out of ParseClass always pass. Like the parser, it finds a duplicate
// method by scanning the methods before it: a class has a handful.
func (c *Class) Check() error {
	if c.Name == "" {
		return fmt.Errorf("smali: class with empty name")
	}
	if c.Super == "" {
		return fmt.Errorf("smali: class %s missing superclass", c.Name)
	}
	for _, f := range c.Fields {
		if !isIdent(f.Name) {
			return fmt.Errorf("smali: class %s: invalid field name %q", c.Name, f.Name)
		}
		if f.Descriptor == "" {
			return fmt.Errorf("smali: class %s: field %s without descriptor", c.Name, f.Name)
		}
	}
	for i, m := range c.Methods {
		if !isIdent(m.Name) {
			return fmt.Errorf("smali: class %s: invalid method name %q", c.Name, m.Name)
		}
		for _, prev := range c.Methods[:i] {
			if prev.Name == m.Name {
				return fmt.Errorf("smali: class %s: duplicate method %s", c.Name, m.Name)
			}
		}
		for _, ins := range m.Body {
			if err := ins.validate(); err != nil {
				return fmt.Errorf("smali: class %s method %s: %w", c.Name, m.Name, err)
			}
		}
	}
	return nil
}

// Method returns the named method, or nil.
func (c *Class) Method(name string) *Method {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Outer returns the outer-class name for inner classes ("A$1" -> "A"), or ""
// if the class is not an inner class.
func (c *Class) Outer() string {
	if i := strings.IndexByte(c.Name, '$'); i > 0 {
		return c.Name[:i]
	}
	return ""
}

// Program is a set of classes indexed by name, i.e. the decompiled code of a
// whole application.
type Program struct {
	classes map[string]*Class
	order   []*Class // insertion order
	// sorted is every class name in sorted order, InnerClasses' index. It
	// is built on first use and dropped by Add.
	sorted atomic.Pointer[[]string]
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return NewProgramSized(0)
}

// NewProgramSized returns an empty program pre-sized for about hint classes.
func NewProgramSized(hint int) *Program {
	return &Program{
		classes: make(map[string]*Class, hint),
		order:   make([]*Class, 0, hint),
	}
}

// Add inserts a class. Duplicate class names are an error.
func (p *Program) Add(c *Class) error {
	if c.Name == "" {
		return fmt.Errorf("smali: class with empty name")
	}
	if _, dup := p.classes[c.Name]; dup {
		return fmt.Errorf("smali: duplicate class %s", c.Name)
	}
	p.classes[c.Name] = c
	p.order = append(p.order, c)
	p.sorted.Store(nil)
	return nil
}

// Class returns the named class, or nil.
func (p *Program) Class(name string) *Class {
	return p.classes[name]
}

// Names returns all class names in insertion order. The slice is a copy.
func (p *Program) Names() []string {
	out := make([]string, len(p.order))
	for i, c := range p.order {
		out[i] = c.Name
	}
	return out
}

// Len reports the number of classes.
func (p *Program) Len() int { return len(p.order) }

// ClassAt returns the i-th class in insertion order, 0 <= i < Len(): a
// walk over the classes with neither a copy of the names nor a lookup by
// name.
func (p *Program) ClassAt(i int) *Class { return p.order[i] }

// SuperChain returns the chain of superclass names starting at name's direct
// superclass and ending at the last resolvable ancestor (framework classes
// terminate the chain since they have no .smali file). This is the
// getSuperChain of Algorithm 2. Cycles are broken defensively.
func (p *Program) SuperChain(name string) []string {
	var chain []string
	seen := map[string]bool{name: true}
	cur := p.classes[name]
	for cur != nil && cur.Super != "" {
		if seen[cur.Super] {
			break
		}
		seen[cur.Super] = true
		chain = append(chain, cur.Super)
		if FrameworkClass(cur.Super) {
			break
		}
		cur = p.classes[cur.Super]
	}
	return chain
}

// IsSubclassOf reports whether name transitively extends base (base itself is
// not a subclass of base).
func (p *Program) IsSubclassOf(name, base string) bool {
	return p.extends(name, base, base)
}

// extends reports whether SuperChain(name) contains base1 or base2, walking
// the chain without building it. The program classes on a chain are
// distinct until it loops, so within len(classes)+1 steps the walk has
// checked every name SuperChain would list; a chain that loops back to name
// stops there, as SuperChain does.
func (p *Program) extends(name, base1, base2 string) bool {
	cur := p.classes[name]
	for steps := 0; cur != nil && cur.Super != "" && steps <= len(p.classes); steps++ {
		s := cur.Super
		if s == name {
			return false
		}
		if s == base1 || s == base2 {
			return true
		}
		if FrameworkClass(s) {
			return false
		}
		cur = p.classes[s]
	}
	return false
}

// IsFragmentClass reports whether name extends android.app.Fragment or
// android.support.v4.app.Fragment (paper §IV-B2 and Algorithm 2).
func (p *Program) IsFragmentClass(name string) bool {
	return p.extends(name, ClassFragment, ClassSupportFragment)
}

// IsActivityClass reports whether name extends android.app.Activity or
// android.support.v4.app.FragmentActivity.
func (p *Program) IsActivityClass(name string) bool {
	return p.extends(name, ClassActivity, ClassFragmentActivity)
}

// FragmentClasses returns all fragment subclasses, sorted. This implements
// the two-pass scan of §IV-B2: direct subclasses first, then derived classes
// of those subclasses (SuperChain already makes the scan transitive).
func (p *Program) FragmentClasses() []string {
	var out []string
	for name := range p.classes {
		if p.IsFragmentClass(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// HasFragmentClass reports whether any class is a fragment subclass,
// stopping at the first; it is len(FragmentClasses()) > 0 without the
// list.
func (p *Program) HasFragmentClass() bool {
	for _, c := range p.order {
		if p.IsFragmentClass(c.Name) {
			return true
		}
	}
	return false
}

// ActivityClasses returns all activity subclasses, sorted.
func (p *Program) ActivityClasses() []string {
	var out []string
	for name := range p.classes {
		if p.IsActivityClass(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// InnerClasses returns the classes declared inside name (dollar-sign naming
// convention), sorted. Algorithm 2's getInnerClass includes the class itself;
// callers that need that behaviour use ClassAndInner. The names starting
// with name+"$" form one range of the sorted name index, found by binary
// search.
func (p *Program) InnerClasses(name string) []string {
	names := p.sortedNames()
	prefix := name + "$"
	lo := sort.SearchStrings(names, prefix)
	hi := lo
	for hi < len(names) && strings.HasPrefix(names[hi], prefix) {
		hi++
	}
	if lo == hi {
		return nil
	}
	return append([]string(nil), names[lo:hi]...)
}

// sortedNames returns the sorted name index, building it on first use.
// Concurrent first uses build identical copies, and either may be kept.
func (p *Program) sortedNames() []string {
	if s := p.sorted.Load(); s != nil {
		return *s
	}
	s := p.Names()
	sort.Strings(s)
	p.sorted.Store(&s)
	return s
}

// ClassAndInner returns name followed by its inner classes — the getInnerClass
// set of Algorithm 2.
func (p *Program) ClassAndInner(name string) []string {
	return append([]string{name}, p.InnerClasses(name)...)
}

// UsedClasses returns the set of class names referenced by the instructions
// of the given class (Algorithm 2's getUsedClass), sorted. Only operands with
// class shape count; framework names are included so callers can walk their
// chains uniformly.
func (p *Program) UsedClasses(name string) []string {
	c := p.classes[name]
	if c == nil {
		return nil
	}
	set := make(map[string]bool)
	for _, m := range c.Methods {
		for _, ins := range m.Body {
			spec, _ := lookupOp(ins.Op)
			for n := range len(spec) {
				if argKind(spec[n]) == argType && n < len(ins.Args) {
					set[ins.Args[n]] = true
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Validate checks cross-class invariants: every non-framework superclass and
// referenced class must exist in the program.
func (p *Program) Validate() error {
	for _, c := range p.order {
		if c.Super == "" {
			return fmt.Errorf("smali: class %s has no superclass", c.Name)
		}
		if !FrameworkClass(c.Super) && p.classes[c.Super] == nil {
			return fmt.Errorf("smali: class %s extends unknown class %s", c.Name, c.Super)
		}
		if u, ok := p.smallestUnknown(c); ok {
			return fmt.Errorf("smali: class %s references unknown class %s", c.Name, u)
		}
	}
	return nil
}

// smallestUnknown returns the smallest of the class names c's instructions
// reference (as UsedClasses lists them) that is neither a framework class
// nor in the program. It reports false if there is none.
func (p *Program) smallestUnknown(c *Class) (string, bool) {
	var smallest string
	found := false
	for _, m := range c.Methods {
		for _, ins := range m.Body {
			spec, _ := lookupOp(ins.Op)
			for n := range len(spec) {
				if argKind(spec[n]) != argType || n >= len(ins.Args) {
					continue
				}
				u := ins.Args[n]
				if (!found || u < smallest) && !FrameworkClass(u) && p.classes[u] == nil {
					smallest, found = u, true
				}
			}
		}
	}
	return smallest, found
}

// ToDescriptor converts a dotted class name to the Dalvik descriptor form
// used in source ("com.ex.A" -> "Lcom/ex/A;").
func ToDescriptor(dotted string) string {
	return "L" + strings.ReplaceAll(dotted, ".", "/") + ";"
}

// FromDescriptor converts a Dalvik descriptor to a dotted class name. It
// returns an error for malformed descriptors.
func FromDescriptor(desc string) (string, error) {
	if len(desc) < 3 || desc[0] != 'L' || desc[len(desc)-1] != ';' {
		return "", fmt.Errorf("smali: malformed type descriptor %q", desc)
	}
	return strings.ReplaceAll(desc[1:len(desc)-1], "/", "."), nil
}
