// Package smali implements the smali-like class language of the synthetic
// application package. Apktool in the paper's pipeline turns DEX bytecode
// into .smali files; our packages carry code in this dialect directly. The
// package provides a lexer/parser, a program-wide class model with
// inheritance resolution (the getSuperChain of Algorithm 2), and a writer
// used by the corpus generators.
//
// A class file looks like:
//
//	.class public Lcom/example/MainActivity;
//	.super Landroid/app/Activity;
//	.implements Lcom/example/HomeFragment$Host;
//
//	.field private mUser:Ljava/lang/String;
//
//	.method public onCreate()V
//	    set-content-view @layout/activity_main
//	    set-click-listener @id/btn_next onNext
//	    get-fragment-manager
//	    begin-transaction
//	    txn-add @id/container Lcom/example/HomeFragment;
//	    txn-commit
//	.end method
//
// Instructions are one per line: an opcode followed by whitespace-separated
// operands (type descriptors in Dalvik "Lpkg/Cls;" form, resource references
// in "@kind/name" form, and double-quoted strings).
package smali

import "fmt"

// Op is an instruction opcode.
type Op string

// The instruction set. It covers exactly the behaviours FragDroid's paper
// reasons about: activity starts (explicit and action-based), fragment
// transactions, direct fragment loading without a FragmentManager, widget
// listener registration, input/extras guards, dialogs and popups, drawer
// toggling, and sensitive API invocation.
const (
	// UI wiring.
	OpSetContentView   Op = "set-content-view"   // @layout/name
	OpSetClickListener Op = "set-click-listener" // @id/x methodName
	OpToggleVisible    Op = "toggle-visible"     // @id/x
	OpSetText          Op = "set-text"           // @id/x "value"

	// Activity transitions (Algorithm 1 patterns).
	OpNewIntent       Op = "new-intent"        // Lsrc; Ldst;       == new Intent(A0.class, A1.class)
	OpSetClass        Op = "set-class"         // Lsrc; Ldst;       == intent.setClass(A0, A1)
	OpNewIntentAction Op = "new-intent-action" // "action"          == new Intent(String action)
	OpSetAction       Op = "set-action"        // "action"          == intent.setAction(action)
	OpPutExtra        Op = "put-extra"         // "key" "value"
	OpStartActivity   Op = "start-activity"    //                   == startActivity(intent)
	OpSendBroadcast   Op = "send-broadcast"    // "action"          == sendBroadcast(new Intent(action))
	OpFinish          Op = "finish"

	// Fragment machinery.
	OpGetFragmentManager        Op = "get-fragment-manager"
	OpGetSupportFragmentManager Op = "get-support-fragment-manager"
	OpBeginTransaction          Op = "begin-transaction"
	OpTxnAdd                    Op = "txn-add"     // @id/container Lfrag;
	OpTxnReplace                Op = "txn-replace" // @id/container Lfrag;
	OpTxnRemove                 Op = "txn-remove"  // Lfrag;
	OpTxnCommit                 Op = "txn-commit"
	OpInflateView               Op = "inflate-view" // @id/container Lfrag;  direct load, NO FragmentManager

	// Generic object patterns Algorithm 1 scans for.
	OpNewInstance Op = "new-instance" // Lclass;           == new F1()
	OpInvokeNewIn Op = "invoke-newinstance"
	// OpInvokeNewIn: Lclass;                               == F1.newInstance()
	OpInstanceOf Op = "instance-of" // Lclass;              == instanceof(F1)

	// Behaviour that perturbs dynamic testing.
	OpShowDialog   Op = "show-dialog"   // "text"   modal dialog, dismissed by blank click
	OpShowPopup    Op = "show-popup"    // "text"   action-bar popup menu
	OpRequireInput Op = "require-input" // @id/field "expected"  abort method unless matched
	OpRequireExtra Op = "require-extra" // "key"    FC unless the launching intent has it
	OpCrash        Op = "crash"         // "reason" unconditional force close

	// Monitoring.
	OpInvokeSensitive Op = "invoke-sensitive" // "category/api"
	OpLoadLibrary     Op = "load-library"     // "name"   counts as shell/loadLibrary
	OpLog             Op = "log"              // "msg"
	OpNop             Op = "nop"
)

// opSpec is the operand contract of an opcode: one argKind byte per
// operand, so its length is the operand count. Being a string, it comes
// back from lookupOp in registers, where a struct holding an array would
// go through memory.
type opSpec string

// argKind is the shape of one operand.
type argKind byte

const (
	argType  argKind = 't' // Dalvik type descriptor (Lx/Y;)
	argRes   argKind = 'r' // resource reference (@kind/name)
	argStr   argKind = 's' // quoted string (unquoted by the lexer)
	argIdent argKind = 'i' // bare identifier (method name)
)

// lookupOp returns the operand contract of op and reports whether op is in
// the instruction set. It is the instruction set's only table: a switch,
// which compares op with the known spellings and hashes nothing, where a
// map lookup would hash op on every instruction checked.
func lookupOp(op Op) (opSpec, bool) {
	switch op {
	case OpStartActivity, OpFinish, OpGetFragmentManager, OpGetSupportFragmentManager,
		OpBeginTransaction, OpTxnCommit, OpNop:
		return "", true
	case OpNewIntentAction, OpSetAction, OpSendBroadcast, OpShowDialog, OpShowPopup,
		OpRequireExtra, OpCrash, OpInvokeSensitive, OpLoadLibrary, OpLog:
		return "s", true
	case OpSetContentView, OpToggleVisible:
		return "r", true
	case OpTxnRemove, OpNewInstance, OpInvokeNewIn, OpInstanceOf:
		return "t", true
	case OpSetClickListener:
		return "ri", true
	case OpSetText, OpRequireInput:
		return "rs", true
	case OpTxnAdd, OpTxnReplace, OpInflateView:
		return "rt", true
	case OpNewIntent, OpSetClass:
		return "tt", true
	case OpPutExtra:
		return "ss", true
	}
	return "", false
}

// validate checks operand count and shapes for an instruction.
func (i Instr) validate() error {
	spec, ok := lookupOp(i.Op)
	if !ok {
		return fmt.Errorf("line %d: unknown opcode %q", i.Line, i.Op)
	}
	if len(i.Args) != len(spec) {
		return fmt.Errorf("line %d: %s wants %d operands, got %d", i.Line, i.Op, len(spec), len(i.Args))
	}
	for n := range len(spec) {
		a := i.Args[n]
		switch argKind(spec[n]) {
		case argType:
			if !isDottedClass(a) {
				return fmt.Errorf("line %d: %s operand %d: %q is not a class", i.Line, i.Op, n+1, a)
			}
		case argRes:
			if len(a) == 0 || a[0] != '@' {
				return fmt.Errorf("line %d: %s operand %d: %q is not a resource reference", i.Line, i.Op, n+1, a)
			}
		case argIdent:
			if !isIdentifier(a) {
				return fmt.Errorf("line %d: %s operand %d: %q is not an identifier", i.Line, i.Op, n+1, a)
			}
		case argStr:
			// any string, including empty
		}
	}
	return nil
}

// isDottedClass checks a parsed (dotted) class name: one or more non-empty
// dot-separated segments, each shaped like a Java identifier (a leading
// letter, '_' or '$'; digits only afterwards). Rejects all-digit and
// dot-only strings such as "123" or "...".
func isDottedClass(s string) bool {
	if s == "" {
		return false
	}
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if !isIdentifier(s[start:i]) {
				return false
			}
			start = i + 1
		}
	}
	return true
}

// isIdentifier checks a Java-identifier-shaped name: a letter, '_' or '$'
// first, then letters, digits, '_' or '$'. Inner-class segments like
// "Outer$1" are identifiers under this rule because the digit follows '$'.
func isIdentifier(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$'
		digit := c >= '0' && c <= '9'
		if !letter && !(digit && i > 0) {
			return false
		}
	}
	return true
}
