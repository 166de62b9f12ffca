// Package jdcore lowers parsed smali classes to Java-like statements,
// mirroring the paper's use of jd-core to reconstruct Java code from smali
// before transition-edge calculation (§IV-B1: "we further convert the smali
// code to the corresponding Java code ... for the last step – transition edge
// calculation"). Algorithm 1 pattern-matches textual Java statements
// ("new Intent(Class A0, Class A1)", "F1.newInstance()", ...); this package
// produces those statements in a typed form (what the analyzer consumes) and
// renders their Java source (what a human sees) on demand, in RenderJava:
// lowering formats nothing.
package jdcore

import (
	"fmt"
	"strings"

	"fragdroid/internal/smali"
)

// StmtKind classifies a Java-like statement.
type StmtKind int

const (
	// StmtNewIntentExplicit is `intent = new Intent(Src.class, Dst.class)`.
	StmtNewIntentExplicit StmtKind = iota + 1
	// StmtSetClass is `intent.setClass(Src.class, Dst.class)`.
	StmtSetClass
	// StmtNewIntentAction is `intent = new Intent("action")`.
	StmtNewIntentAction
	// StmtSetAction is `intent.setAction("action")`.
	StmtSetAction
	// StmtStartActivity is `startActivity(intent)`.
	StmtStartActivity
	// StmtNewInstance is `new F()`.
	StmtNewInstance
	// StmtNewInstanceCall is `F.newInstance()`.
	StmtNewInstanceCall
	// StmtInstanceOf is `x instanceof F`.
	StmtInstanceOf
	// StmtGetFragmentManager is `getFragmentManager()` or
	// `getSupportFragmentManager()`; Support distinguishes them.
	StmtGetFragmentManager
	// StmtBeginTransaction is `fm.beginTransaction()`.
	StmtBeginTransaction
	// StmtTxnAdd is `txn.add(R.id.container, fragment)`.
	StmtTxnAdd
	// StmtTxnReplace is `txn.replace(R.id.container, fragment)`.
	StmtTxnReplace
	// StmtTxnRemove is `txn.remove(fragment)`.
	StmtTxnRemove
	// StmtTxnCommit is `txn.commit()`.
	StmtTxnCommit
	// StmtInflateFragmentView is a direct fragment view inflation that
	// bypasses the FragmentManager.
	StmtInflateFragmentView
	// StmtSetContentView is `setContentView(R.layout.x)`.
	StmtSetContentView
	// StmtSetClickListener is `findViewById(R.id.x).setOnClickListener(...)`.
	StmtSetClickListener
	// StmtSensitiveCall is an invocation of a sensitive API.
	StmtSensitiveCall
	// StmtSendBroadcast is `sendBroadcast(new Intent("action"))`.
	StmtSendBroadcast
	// StmtPutExtra is `intent.putExtra("key", "value")`.
	StmtPutExtra
	// StmtRequireExtra guards a component on a launching-intent extra; a
	// missing key force-closes the app.
	StmtRequireExtra
	// StmtOther covers statements Algorithm 1 has no interest in.
	StmtOther
)

// Statement is one lowered Java-like statement, in typed form only: the
// operands Algorithm 1 matches on. RenderJava renders its Java line from
// these fields, and from the originating instruction for the two kinds whose
// line needs it (StmtOther, and the StmtSensitiveCall of System.loadLibrary).
type Statement struct {
	Kind StmtKind
	// Class1 and Class2 carry class operands: for StmtNewIntentExplicit and
	// StmtSetClass, Class1 is the source and Class2 the destination; for the
	// single-class kinds (StmtNewInstance, StmtTxnAdd, ...) Class1 is it.
	Class1, Class2 string
	// Action is the intent action string for the action-based kinds.
	Action string
	// Res is the resource reference operand (@id/..., @layout/...).
	Res string
	// Ident is the handler identifier for StmtSetClickListener.
	Ident string
	// Key and Value carry the extra for StmtPutExtra and StmtRequireExtra.
	Key, Value string
	// API is the sensitive API name for StmtSensitiveCall.
	API string
	// Support is true for getSupportFragmentManager.
	Support bool
	// Line is the originating smali line.
	Line int
}

// Method is a lowered method.
type Method struct {
	Name       string
	Statements []Statement
}

// Class is a lowered class.
type Class struct {
	Name    string
	Super   string
	Methods []Method
	// SourceFile is carried over from the smali class.
	SourceFile string
	// src is the smali class the methods were lowered from, statement j of
	// method i from instruction j of its method i. RenderJava reads the
	// instructions it cannot render from a Statement here.
	src *smali.Class
}

// Method returns the named lowered method, or nil.
func (c *Class) Method(name string) *Method {
	for i := range c.Methods {
		if c.Methods[i].Name == name {
			return &c.Methods[i]
		}
	}
	return nil
}

// Program is a lowered program keyed by class name.
type Program struct {
	classes map[string]*Class
	order   []string
}

// Class returns the lowered class, or nil.
func (p *Program) Class(name string) *Class { return p.classes[name] }

// Names returns lowered class names in insertion order.
func (p *Program) Names() []string { return append([]string(nil), p.order...) }

// Decompile lowers every class of a smali program. Each class's statements
// share one slice, cut into its methods' bodies.
func Decompile(sp *smali.Program) *Program {
	names := sp.Names()
	p := &Program{classes: make(map[string]*Class, len(names)), order: names}
	classes := make([]Class, len(names))
	for i, name := range names {
		sc := sp.Class(name)
		jc := &classes[i]
		*jc = Class{Name: sc.Name, Super: sc.Super, SourceFile: sc.SourceFile, src: sc,
			Methods: make([]Method, len(sc.Methods))}
		n := 0
		for _, m := range sc.Methods {
			n += len(m.Body)
		}
		stmts := make([]Statement, n)
		for j, m := range sc.Methods {
			body := stmts[:len(m.Body):len(m.Body)]
			stmts = stmts[len(m.Body):]
			for k, ins := range m.Body {
				body[k] = Lower(ins)
			}
			jc.Methods[j] = Method{Name: m.Name, Statements: body}
		}
		p.classes[jc.Name] = jc
	}
	return p
}

// simple returns the simple (package-free) class name.
func simple(dotted string) string {
	if i := strings.LastIndexByte(dotted, '.'); i >= 0 {
		return dotted[i+1:]
	}
	return dotted
}

// rid renders a resource reference as an R-expression ("@id/x" -> "R.id.x").
func rid(ref string) string {
	s := strings.TrimPrefix(strings.TrimPrefix(ref, "@+"), "@")
	return "R." + strings.ReplaceAll(s, "/", ".")
}

// Lower converts one smali instruction to its Java-like statement.
func Lower(ins smali.Instr) Statement {
	st := Statement{Line: ins.Line}
	switch ins.Op {
	case smali.OpNewIntent:
		st.Kind = StmtNewIntentExplicit
		st.Class1, st.Class2 = ins.Args[0], ins.Args[1]
	case smali.OpSetClass:
		st.Kind = StmtSetClass
		st.Class1, st.Class2 = ins.Args[0], ins.Args[1]
	case smali.OpNewIntentAction:
		st.Kind = StmtNewIntentAction
		st.Action = ins.Args[0]
	case smali.OpSetAction:
		st.Kind = StmtSetAction
		st.Action = ins.Args[0]
	case smali.OpStartActivity:
		st.Kind = StmtStartActivity
	case smali.OpSendBroadcast:
		st.Kind = StmtSendBroadcast
		st.Action = ins.Args[0]
	case smali.OpPutExtra:
		st.Kind = StmtPutExtra
		st.Key, st.Value = ins.Args[0], ins.Args[1]
	case smali.OpRequireExtra:
		st.Kind = StmtRequireExtra
		st.Key = ins.Args[0]
	case smali.OpNewInstance:
		st.Kind = StmtNewInstance
		st.Class1 = ins.Args[0]
	case smali.OpInvokeNewIn:
		st.Kind = StmtNewInstanceCall
		st.Class1 = ins.Args[0]
	case smali.OpInstanceOf:
		st.Kind = StmtInstanceOf
		st.Class1 = ins.Args[0]
	case smali.OpGetFragmentManager:
		st.Kind = StmtGetFragmentManager
	case smali.OpGetSupportFragmentManager:
		st.Kind = StmtGetFragmentManager
		st.Support = true
	case smali.OpBeginTransaction:
		st.Kind = StmtBeginTransaction
	case smali.OpTxnAdd:
		st.Kind = StmtTxnAdd
		st.Res, st.Class1 = ins.Args[0], ins.Args[1]
	case smali.OpTxnReplace:
		st.Kind = StmtTxnReplace
		st.Res, st.Class1 = ins.Args[0], ins.Args[1]
	case smali.OpTxnRemove:
		st.Kind = StmtTxnRemove
		st.Class1 = ins.Args[0]
	case smali.OpTxnCommit:
		st.Kind = StmtTxnCommit
	case smali.OpInflateView:
		st.Kind = StmtInflateFragmentView
		st.Res, st.Class1 = ins.Args[0], ins.Args[1]
	case smali.OpSetContentView:
		st.Kind = StmtSetContentView
		st.Res = ins.Args[0]
	case smali.OpSetClickListener:
		st.Kind = StmtSetClickListener
		st.Res, st.Ident = ins.Args[0], ins.Args[1]
	case smali.OpInvokeSensitive:
		st.Kind = StmtSensitiveCall
		st.API = ins.Args[0]
	case smali.OpLoadLibrary:
		st.Kind = StmtSensitiveCall
		st.API = "shell/loadLibrary"
	default:
		st.Kind = StmtOther
	}
	return st
}

// RenderJava renders the whole lowered class as pseudo-Java source, standing
// in for the .java files jd-core would produce (fragdroid -java prints it).
func RenderJava(c *Class) string {
	var b strings.Builder
	fmt.Fprintf(&b, "public class %s extends %s {\n", simple(c.Name), simple(c.Super))
	for i, m := range c.Methods {
		fmt.Fprintf(&b, "    public void %s() {\n", m.Name)
		for j, st := range m.Statements {
			b.WriteString("        ")
			writeJava(&b, st, c.instr(i, j))
			b.WriteByte('\n')
		}
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

// instr returns the instruction statement j of method i was lowered from,
// or the zero instruction for a class Decompile did not build.
func (c *Class) instr(i, j int) smali.Instr {
	if c.src == nil || i >= len(c.src.Methods) || j >= len(c.src.Methods[i].Body) {
		return smali.Instr{}
	}
	return c.src.Methods[i].Body[j]
}

// writeJava writes the Java line of st, which Lower made from ins.
func writeJava(b *strings.Builder, st Statement, ins smali.Instr) {
	switch st.Kind {
	case StmtNewIntentExplicit:
		fmt.Fprintf(b, "Intent intent = new Intent(%s.class, %s.class);", simple(st.Class1), simple(st.Class2))
	case StmtSetClass:
		fmt.Fprintf(b, "intent.setClass(%s.this, %s.class);", simple(st.Class1), simple(st.Class2))
	case StmtNewIntentAction:
		fmt.Fprintf(b, "Intent intent = new Intent(%q);", st.Action)
	case StmtSetAction:
		fmt.Fprintf(b, "intent.setAction(%q);", st.Action)
	case StmtStartActivity:
		b.WriteString("startActivity(intent);")
	case StmtSendBroadcast:
		fmt.Fprintf(b, "sendBroadcast(new Intent(%q));", st.Action)
	case StmtPutExtra:
		fmt.Fprintf(b, "intent.putExtra(%q, %q);", st.Key, st.Value)
	case StmtRequireExtra:
		fmt.Fprintf(b, "if (getIntent().getStringExtra(%q) == null) throw new IllegalStateException();", st.Key)
	case StmtNewInstance:
		fmt.Fprintf(b, "%s obj = new %s();", simple(st.Class1), simple(st.Class1))
	case StmtNewInstanceCall:
		fmt.Fprintf(b, "%s obj = %s.newInstance();", simple(st.Class1), simple(st.Class1))
	case StmtInstanceOf:
		fmt.Fprintf(b, "if (obj instanceof %s) { ... }", simple(st.Class1))
	case StmtGetFragmentManager:
		if st.Support {
			b.WriteString("FragmentManager fm = getSupportFragmentManager();")
		} else {
			b.WriteString("FragmentManager fm = getFragmentManager();")
		}
	case StmtBeginTransaction:
		b.WriteString("FragmentTransaction txn = fm.beginTransaction();")
	case StmtTxnAdd:
		fmt.Fprintf(b, "txn.add(%s, new %s());", rid(st.Res), simple(st.Class1))
	case StmtTxnReplace:
		fmt.Fprintf(b, "txn.replace(%s, new %s());", rid(st.Res), simple(st.Class1))
	case StmtTxnRemove:
		fmt.Fprintf(b, "txn.remove(%s);", simple(st.Class1))
	case StmtTxnCommit:
		b.WriteString("txn.commit();")
	case StmtInflateFragmentView:
		fmt.Fprintf(b, "inflater.inflate(%s, new %s().onCreateView());", rid(st.Res), simple(st.Class1))
	case StmtSetContentView:
		fmt.Fprintf(b, "setContentView(%s);", rid(st.Res))
	case StmtSetClickListener:
		fmt.Fprintf(b, "findViewById(%s).setOnClickListener(v -> %s());", rid(st.Res), st.Ident)
	case StmtSensitiveCall:
		if ins.Op == smali.OpLoadLibrary {
			fmt.Fprintf(b, "System.loadLibrary(%q);", ins.Args[0])
		} else {
			fmt.Fprintf(b, "// sensitive: %s", st.API)
		}
	default:
		b.WriteString("// ")
		b.WriteString(ins.String())
	}
}
