package ir

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
)

// paperSpecs lists the demo app and the 15 Table I apps.
func paperSpecs() []*corpus.AppSpec {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	return specs
}

// buildApps builds the apps of specs by package, skipping packed ones: they
// never load, so they have no program.
func buildApps(t *testing.T, specs []*corpus.AppSpec) map[string]*apk.App {
	t.Helper()
	apps := make(map[string]*apk.App, len(specs))
	for _, spec := range specs {
		app, err := corpus.BuildApp(spec)
		if errors.Is(err, apk.ErrPacked) {
			continue
		}
		if err != nil {
			t.Fatalf("build %s: %v", spec.Package, err)
		}
		apps[spec.Package] = app
	}
	return apps
}

// TestCodecRoundTrip compiles every corpus app (demo, Table I and the
// 217-app study), encodes and decodes it, and requires the decoded tables to
// equal the compiled ones, down to the per-class method maps Decode
// rebuilds. Re-encoding must reproduce the payload byte for byte.
func TestCodecRoundTrip(t *testing.T) {
	apps := buildApps(t, append(paperSpecs(), corpus.StudySpecs(1)...))
	if len(apps) < 200 {
		t.Fatalf("only %d corpus apps built", len(apps))
	}
	for pkg, app := range apps {
		p := Compile(app)
		data := Encode(p)
		q, err := Decode(data, app)
		if err != nil {
			t.Fatalf("%s: decode: %v", pkg, err)
		}
		if !equalStrings(p.Strings, q.Strings) {
			t.Errorf("%s: strings differ", pkg)
		}
		if len(p.Methods) != len(q.Methods) || len(p.Code) != len(q.Code) || len(p.Classes) != len(q.Classes) {
			t.Fatalf("%s: table sizes differ: methods %d/%d code %d/%d classes %d/%d", pkg,
				len(p.Methods), len(q.Methods), len(p.Code), len(q.Code), len(p.Classes), len(q.Classes))
		}
		for i := range p.Methods {
			if p.Methods[i] != q.Methods[i] {
				t.Errorf("%s: method %d: %+v, decoded %+v", pkg, i, p.Methods[i], q.Methods[i])
			}
		}
		for i := range p.Code {
			if p.Code[i] != q.Code[i] {
				t.Errorf("%s: instr %d: %+v, decoded %+v", pkg, i, p.Code[i], q.Code[i])
			}
		}
		for i := range p.Classes {
			if err := equalClass(&p.Classes[i], &q.Classes[i]); err != "" {
				t.Errorf("%s: class %d (%s): %s", pkg, i, p.Classes[i].Name, err)
			}
		}
		if p.instrSites != q.instrSites || len(p.sites) != len(q.sites) {
			t.Errorf("%s: sites %d/%d, decoded %d/%d", pkg, p.instrSites, len(p.sites), q.instrSites, len(q.sites))
		}
		if again := Encode(q); !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding the decoded program changed the payload", pkg)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equalClass compares two linked classes; a nil and an empty method map are
// equal (Compile allocates one for every class it compiles, Decode only for
// classes that have methods).
func equalClass(a, b *Class) string {
	if a.Name != b.Name || a.Super != b.Super || a.IsFragment != b.IsFragment ||
		a.UsesFM != b.UsesFM || a.RequiresArgs != b.RequiresArgs || a.Framework != b.Framework ||
		a.ActLife != b.ActLife || a.FragLife != b.FragLife || a.OnReceive != b.OnReceive {
		return "fields differ"
	}
	if len(a.methods) != len(b.methods) {
		return "method maps differ in size"
	}
	for name, mi := range a.methods {
		if got, ok := b.methods[name]; !ok || got != mi {
			return "method " + name + " differs"
		}
	}
	return ""
}

// TestDecodeTruncated decodes every strict prefix of each Table I and demo
// payload: each must fail with an error, never panic.
func TestDecodeTruncated(t *testing.T) {
	for pkg, app := range buildApps(t, paperSpecs()) {
		data := Encode(Compile(app))
		for n := 0; n < len(data); n++ {
			if _, err := Decode(data[:n], app); err == nil {
				t.Fatalf("%s: %d-byte prefix of a %d-byte payload decoded without error", pkg, n, len(data))
			}
		}
	}
}

// TestDecodeRejectsOutOfRangeOperand corrupts one decoded index per case,
// re-encodes the program, and requires Decode to reject it during
// validation instead of handing the interpreter an index that panics.
func TestDecodeRejectsOutOfRangeOperand(t *testing.T) {
	app := buildApps(t, paperSpecs())["com.adobe.reader"]
	find := func(p *Program, op Opcode) int {
		for i := range p.Code {
			if p.Code[i].Op == op {
				return i
			}
		}
		t.Fatalf("no %s instruction in the program", op)
		return -1
	}
	cases := []struct {
		name    string
		corrupt func(p *Program)
		want    string // in the validation error
	}{
		{"string operand", func(p *Program) {
			p.Code[find(p, OpInvokeSensitive)].A = int32(len(p.Strings))
		}, "operand out of range"},
		{"click-listener site", func(p *Program) {
			p.Code[find(p, OpSetClickListener)].C = p.instrSites + 1
		}, "operand out of range"},
		{"layout index", func(p *Program) {
			p.Code[find(p, OpSetContentView)].A = int32(len(p.Layouts))
		}, "operand out of range"},
		{"fragment class", func(p *Program) {
			p.Code[find(p, OpTxnReplace)].C = int32(len(p.Classes))
		}, "operand out of range"},
		{"opcode", func(p *Program) { p.Code[0].Op = opCount }, "bad opcode"},
		{"superclass", func(p *Program) { p.Classes[0].Super = int32(len(p.Classes)) }, "super"},
		{"vtable entry", func(p *Program) { p.Classes[0].ActLife[0] = int32(len(p.Methods)) }, "vtable entry"},
		{"method class", func(p *Program) { p.Methods[0].Class = int32(len(p.Classes)) }, "method 0: class"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := Compile(app)
			c.corrupt(p)
			_, err := Decode(Encode(p), app)
			if err == nil {
				t.Fatal("corrupted payload decoded without error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want one mentioning %q", err, c.want)
			}
		})
	}
}

// TestInlineCache covers one monomorphic cache site: an empty site misses,
// a stored resolution hits for its receiver class only, and a store for a
// different class replaces it. Class and method index 0 must not read as
// the empty slot.
func TestInlineCache(t *testing.T) {
	p := &Program{sites: make([]cacheSlot, 3)}
	if got := p.ICLoad(1, 4); got != -1 {
		t.Fatalf("empty site: got %d, want miss", got)
	}
	p.ICStore(1, 4, 7)
	if got := p.ICLoad(1, 4); got != 7 {
		t.Fatalf("hit: got %d, want 7", got)
	}
	if got := p.ICLoad(1, 5); got != -1 {
		t.Fatalf("other receiver class: got %d, want miss", got)
	}
	if got := p.ICLoad(2, 4); got != -1 {
		t.Fatalf("other site: got %d, want miss", got)
	}
	p.ICStore(1, 5, 9)
	if got := p.ICLoad(1, 5); got != 9 {
		t.Fatalf("replaced entry: got %d, want 9", got)
	}
	if got := p.ICLoad(1, 4); got != -1 {
		t.Fatalf("replaced class: got %d, want miss", got)
	}
	p.ICStore(2, 0, 0)
	if got := p.ICLoad(2, 0); got != 0 {
		t.Fatalf("class 0 method 0: got %d, want 0", got)
	}
}

// TestResolve walks superclass chains: a method is found on the class or an
// ancestor, a missing one resolves to -1, and a cyclic chain (which Decode
// admits, since each link is in range) terminates instead of hanging.
func TestResolve(t *testing.T) {
	p := &Program{Classes: []Class{
		{Name: "A", Super: 1, methods: map[string]int32{"own": 0}},
		{Name: "B", Super: 2, methods: map[string]int32{"inherited": 1}},
		{Name: "C", Super: 0},
		{Name: "Self", Super: 3},
	}}
	for _, c := range []struct {
		class int32
		name  string
		want  int32
	}{
		{0, "own", 0},
		{0, "inherited", 1},
		{2, "own", 0},
		{0, "missing", -1},
		{3, "missing", -1},
		{-1, "own", -1},
	} {
		if got := p.Resolve(c.class, c.name); got != c.want {
			t.Errorf("Resolve(%d, %q) = %d, want %d", c.class, c.name, got, c.want)
		}
	}
}
