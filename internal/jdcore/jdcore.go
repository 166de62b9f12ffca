// Package jdcore lowers parsed smali classes to Java-like statements,
// mirroring the paper's use of jd-core to reconstruct Java code from smali
// before transition-edge calculation (§IV-B1: "we further convert the smali
// code to the corresponding Java code ... for the last step – transition edge
// calculation"). Algorithm 1 pattern-matches textual Java statements
// ("new Intent(Class A0, Class A1)", "F1.newInstance()", ...); this package
// produces those statements in both a typed form (what the analyzer consumes)
// and a rendered source form (what a human or metadata file sees).
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

// Statement is one lowered Java-like statement.
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
	// Source is the rendered Java source line.
	Source string
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

// Decompile lowers every class of a smali program.
func Decompile(sp *smali.Program) *Program {
	p := &Program{classes: make(map[string]*Class)}
	for _, name := range sp.Names() {
		sc := sp.Class(name)
		jc := &Class{Name: sc.Name, Super: sc.Super, SourceFile: sc.SourceFile}
		for _, m := range sc.Methods {
			jm := Method{Name: m.Name}
			for _, ins := range m.Body {
				jm.Statements = append(jm.Statements, Lower(ins))
			}
			jc.Methods = append(jc.Methods, jm)
		}
		p.classes[jc.Name] = jc
		p.order = append(p.order, jc.Name)
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
		st.Source = fmt.Sprintf("Intent intent = new Intent(%s.class, %s.class);",
			simple(st.Class1), simple(st.Class2))
	case smali.OpSetClass:
		st.Kind = StmtSetClass
		st.Class1, st.Class2 = ins.Args[0], ins.Args[1]
		st.Source = fmt.Sprintf("intent.setClass(%s.this, %s.class);",
			simple(st.Class1), simple(st.Class2))
	case smali.OpNewIntentAction:
		st.Kind = StmtNewIntentAction
		st.Action = ins.Args[0]
		st.Source = fmt.Sprintf("Intent intent = new Intent(%q);", st.Action)
	case smali.OpSetAction:
		st.Kind = StmtSetAction
		st.Action = ins.Args[0]
		st.Source = fmt.Sprintf("intent.setAction(%q);", st.Action)
	case smali.OpStartActivity:
		st.Kind = StmtStartActivity
		st.Source = "startActivity(intent);"
	case smali.OpSendBroadcast:
		st.Kind = StmtSendBroadcast
		st.Action = ins.Args[0]
		st.Source = fmt.Sprintf("sendBroadcast(new Intent(%q));", st.Action)
	case smali.OpPutExtra:
		st.Kind = StmtPutExtra
		st.Key, st.Value = ins.Args[0], ins.Args[1]
		st.Source = fmt.Sprintf("intent.putExtra(%q, %q);", st.Key, st.Value)
	case smali.OpRequireExtra:
		st.Kind = StmtRequireExtra
		st.Key = ins.Args[0]
		st.Source = fmt.Sprintf("if (getIntent().getStringExtra(%q) == null) throw new IllegalStateException();", st.Key)
	case smali.OpNewInstance:
		st.Kind = StmtNewInstance
		st.Class1 = ins.Args[0]
		st.Source = fmt.Sprintf("%s obj = new %s();", simple(st.Class1), simple(st.Class1))
	case smali.OpInvokeNewIn:
		st.Kind = StmtNewInstanceCall
		st.Class1 = ins.Args[0]
		st.Source = fmt.Sprintf("%s obj = %s.newInstance();", simple(st.Class1), simple(st.Class1))
	case smali.OpInstanceOf:
		st.Kind = StmtInstanceOf
		st.Class1 = ins.Args[0]
		st.Source = fmt.Sprintf("if (obj instanceof %s) { ... }", simple(st.Class1))
	case smali.OpGetFragmentManager:
		st.Kind = StmtGetFragmentManager
		st.Source = "FragmentManager fm = getFragmentManager();"
	case smali.OpGetSupportFragmentManager:
		st.Kind = StmtGetFragmentManager
		st.Support = true
		st.Source = "FragmentManager fm = getSupportFragmentManager();"
	case smali.OpBeginTransaction:
		st.Kind = StmtBeginTransaction
		st.Source = "FragmentTransaction txn = fm.beginTransaction();"
	case smali.OpTxnAdd:
		st.Kind = StmtTxnAdd
		st.Res, st.Class1 = ins.Args[0], ins.Args[1]
		st.Source = fmt.Sprintf("txn.add(%s, new %s());", rid(st.Res), simple(st.Class1))
	case smali.OpTxnReplace:
		st.Kind = StmtTxnReplace
		st.Res, st.Class1 = ins.Args[0], ins.Args[1]
		st.Source = fmt.Sprintf("txn.replace(%s, new %s());", rid(st.Res), simple(st.Class1))
	case smali.OpTxnRemove:
		st.Kind = StmtTxnRemove
		st.Class1 = ins.Args[0]
		st.Source = fmt.Sprintf("txn.remove(%s);", simple(st.Class1))
	case smali.OpTxnCommit:
		st.Kind = StmtTxnCommit
		st.Source = "txn.commit();"
	case smali.OpInflateView:
		st.Kind = StmtInflateFragmentView
		st.Res, st.Class1 = ins.Args[0], ins.Args[1]
		st.Source = fmt.Sprintf("inflater.inflate(%s, new %s().onCreateView());",
			rid(st.Res), simple(st.Class1))
	case smali.OpSetContentView:
		st.Kind = StmtSetContentView
		st.Res = ins.Args[0]
		st.Source = fmt.Sprintf("setContentView(%s);", rid(st.Res))
	case smali.OpSetClickListener:
		st.Kind = StmtSetClickListener
		st.Res, st.Ident = ins.Args[0], ins.Args[1]
		st.Source = fmt.Sprintf("findViewById(%s).setOnClickListener(v -> %s());",
			rid(st.Res), st.Ident)
	case smali.OpInvokeSensitive:
		st.Kind = StmtSensitiveCall
		st.API = ins.Args[0]
		st.Source = fmt.Sprintf("// sensitive: %s", st.API)
	case smali.OpLoadLibrary:
		st.Kind = StmtSensitiveCall
		st.API = "shell/loadLibrary"
		st.Source = fmt.Sprintf("System.loadLibrary(%q);", ins.Args[0])
	default:
		st.Kind = StmtOther
		st.Source = "// " + ins.String()
	}
	return st
}

// RenderJava renders the whole lowered class as pseudo-Java source. The
// static phase ships this in its metadata output, standing in for the .java
// files jd-core would produce.
func RenderJava(c *Class) string {
	var b strings.Builder
	fmt.Fprintf(&b, "public class %s extends %s {\n", simple(c.Name), simple(c.Super))
	for _, m := range c.Methods {
		fmt.Fprintf(&b, "    public void %s() {\n", m.Name)
		for _, s := range m.Statements {
			fmt.Fprintf(&b, "        %s\n", s.Source)
		}
		b.WriteString("    }\n")
	}
	b.WriteString("}\n")
	return b.String()
}
