package smali

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzParseClass: the parser must never panic and, whenever it accepts an
// input, the writer must produce source the parser reads back as the same
// class, every operand included.
func FuzzParseClass(f *testing.F) {
	f.Add(".class Lp/A;\n.super Landroid/app/Activity;\n")
	f.Add(".class public Lcom/x/Main;\n.super Landroid/app/Activity;\n.method onCreate()V\n    set-content-view @layout/main\n.end method\n")
	f.Add(".class Lp/F;\n.super Landroid/app/Fragment;\n.requires-args\n.field private x:I\n")
	f.Add(".method broken()V\n")
	f.Add("garbage\x00bytes")
	f.Add(`.class Lp/A;` + "\n" + `.super Lp/B;` + "\n" + `.method m()V` + "\n" + `log "\t\n\\"` + "\n" + `.end method` + "\n")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := ParseClass("fuzz.smali", []byte(src))
		if err != nil {
			return
		}
		out := WriteClass(c)
		c2, err := ParseClass("fuzz2.smali", out)
		if err != nil {
			t.Fatalf("writer output rejected: %v\ninput: %q\noutput:\n%s", err, src, out)
		}
		if err := roundTripDiff(c, c2); err != nil {
			t.Fatalf("round trip changed the class: %v\ninput: %q\noutput:\n%s", err, src, out)
		}
	})
}

// FuzzParseProgram feeds two-file programs through the shared-interner parse
// path. The seeds deliberately repeat class and superclass descriptors across
// files so the interning branches are exercised; on an accepted program every
// class must survive a write/reparse round trip.
func FuzzParseProgram(f *testing.F) {
	f.Add(
		".class Lp/A;\n.super Landroid/app/Activity;\n",
		".class Lp/B;\n.super Landroid/app/Activity;\n",
	)
	// Duplicate descriptors across files: B extends A, both reference A.
	f.Add(
		".class public Lcom/x/A;\n.super Landroid/app/Activity;\n.method m()V\n    new-intent Lcom/x/A; Lcom/x/B;\n    start-activity\n.end method\n",
		".class public Lcom/x/B;\n.super Lcom/x/A;\n.method m()V\n    new-intent Lcom/x/B; Lcom/x/A;\n    start-activity\n.end method\n",
	)
	// Same class name in both files: must be rejected, not crash.
	f.Add(
		".class Lp/A;\n.super Landroid/app/Activity;\n",
		".class Lp/A;\n.super Landroid/app/Activity;\n",
	)
	// Shared access flags, fields, and string escapes across files.
	f.Add(
		".class public final Lp/F;\n.super Landroid/app/Fragment;\n.field private x:I\n.method m()V\n    log \"a\\\"b\"\n.end method\n",
		".class public final Lp/G;\n.super Landroid/app/Fragment;\n.field private x:I\n.method m()V\n    log \"a\\\"b\"\n.end method\n",
	)
	f.Fuzz(func(t *testing.T, srcA, srcB string) {
		files := map[string][]byte{
			"smali/a.smali": []byte(srcA),
			"smali/b.smali": []byte(srcB),
		}
		p, err := ParseProgram(files)
		if err != nil {
			return
		}
		for _, name := range p.Names() {
			c := p.Class(name)
			out := WriteClass(c)
			c2, err := ParseClass(c.SourceFile, out)
			if err != nil {
				t.Fatalf("writer output rejected for %s: %v\noutput:\n%s", name, err, out)
			}
			if err := roundTripDiff(c, c2); err != nil {
				t.Fatalf("round trip changed %s: %v\noutput:\n%s", name, err, out)
			}
		}
	})
}

// roundTripDiff names the first difference between a parsed class and the
// class parsed back from its written form: name, superclass, method names,
// and every instruction's opcode and operands, string operands included.
func roundTripDiff(c, back *Class) error {
	if back.Name != c.Name || back.Super != c.Super || len(back.Methods) != len(c.Methods) {
		return fmt.Errorf("structure: %+v vs %+v", back, c)
	}
	for i, m := range c.Methods {
		bm := back.Methods[i]
		if bm.Name != m.Name || len(bm.Body) != len(m.Body) {
			return fmt.Errorf("method %s: %d instructions, read back as %s with %d", m.Name, len(m.Body), bm.Name, len(bm.Body))
		}
		for j, ins := range m.Body {
			if b := bm.Body[j]; b.Op != ins.Op || !slices.Equal(b.Args, ins.Args) {
				return fmt.Errorf("method %s instruction %d: %s %q read back as %s %q", m.Name, j, ins.Op, ins.Args, b.Op, b.Args)
			}
		}
	}
	return nil
}
