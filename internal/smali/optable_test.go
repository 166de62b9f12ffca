package smali

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"testing"
)

// opConstants parses ops.go and returns every constant of type Op, by name.
func opConstants(t *testing.T) map[string]Op {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "ops.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]Op)
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if typ, ok := vs.Type.(*ast.Ident); !ok || typ.Name != "Op" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("opcode %s is not a string literal", name.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				out[name.Name] = Op(v)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("ops.go declares no opcode")
	}
	return out
}

// tableOps parses ops.go and returns the opcodes lookupOp's switch knows,
// in case order. Every case must name an opcode constant.
func tableOps(t *testing.T) []Op {
	t.Helper()
	consts := opConstants(t)
	f, err := parser.ParseFile(token.NewFileSet(), "ops.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []Op
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "lookupOp" {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				id, ok := e.(*ast.Ident)
				if !ok || consts[id.Name] == "" {
					t.Fatalf("lookupOp case %v is not an opcode constant", e)
				}
				out = append(out, consts[id.Name])
			}
			return false
		})
	}
	if len(out) == 0 {
		t.Fatal("lookupOp names no opcode")
	}
	return out
}

// TestOpTable holds lookupOp to the contracts the instruction set had as a
// map: every opcode constant has its operand count and kinds, the switch
// knows exactly the constants, and any other spelling is unknown.
func TestOpTable(t *testing.T) {
	type contract struct {
		argc  int
		kinds []argKind
	}
	want := map[Op]contract{
		OpSetContentView:   {1, []argKind{argRes}},
		OpSetClickListener: {2, []argKind{argRes, argIdent}},
		OpToggleVisible:    {1, []argKind{argRes}},
		OpSetText:          {2, []argKind{argRes, argStr}},

		OpNewIntent:       {2, []argKind{argType, argType}},
		OpSetClass:        {2, []argKind{argType, argType}},
		OpNewIntentAction: {1, []argKind{argStr}},
		OpSetAction:       {1, []argKind{argStr}},
		OpPutExtra:        {2, []argKind{argStr, argStr}},
		OpStartActivity:   {0, nil},
		OpSendBroadcast:   {1, []argKind{argStr}},
		OpFinish:          {0, nil},

		OpGetFragmentManager:        {0, nil},
		OpGetSupportFragmentManager: {0, nil},
		OpBeginTransaction:          {0, nil},
		OpTxnAdd:                    {2, []argKind{argRes, argType}},
		OpTxnReplace:                {2, []argKind{argRes, argType}},
		OpTxnRemove:                 {1, []argKind{argType}},
		OpTxnCommit:                 {0, nil},
		OpInflateView:               {2, []argKind{argRes, argType}},

		OpNewInstance: {1, []argKind{argType}},
		OpInvokeNewIn: {1, []argKind{argType}},
		OpInstanceOf:  {1, []argKind{argType}},

		OpShowDialog:   {1, []argKind{argStr}},
		OpShowPopup:    {1, []argKind{argStr}},
		OpRequireInput: {2, []argKind{argRes, argStr}},
		OpRequireExtra: {1, []argKind{argStr}},
		OpCrash:        {1, []argKind{argStr}},

		OpInvokeSensitive: {1, []argKind{argStr}},
		OpLoadLibrary:     {1, []argKind{argStr}},
		OpLog:             {1, []argKind{argStr}},
		OpNop:             {0, nil},
	}
	consts := opConstants(t)
	if len(consts) != len(want) {
		t.Errorf("ops.go declares %d opcodes, the contracts cover %d", len(consts), len(want))
	}
	for name, op := range consts {
		w, ok := want[op]
		if !ok {
			t.Errorf("opcode %s (%q) has no contract here", name, op)
			continue
		}
		got, ok := lookupOp(op)
		if !ok {
			t.Errorf("lookupOp(%q) reports an unknown opcode", op)
			continue
		}
		var kinds []argKind
		for n := range len(got) {
			kinds = append(kinds, argKind(got[n]))
		}
		if len(got) != w.argc || !reflect.DeepEqual(kinds, w.kinds) {
			t.Errorf("lookupOp(%q) = %d operands %q, want %d %q", op, len(got), kinds, w.argc, w.kinds)
		}
	}
	known := tableOps(t)
	if len(known) != len(consts) {
		t.Errorf("lookupOp knows %d opcodes, ops.go declares %d", len(known), len(consts))
	}

	for _, op := range []Op{"", "NOP", "nop ", " nop", "txn-add2", "txn", "set-content-view\x00", "Nop"} {
		if _, ok := lookupOp(op); ok {
			t.Errorf("lookupOp(%q) reports a known opcode", op)
		}
		err := Instr{Op: op, Line: 7}.validate()
		if want := "line 7: unknown opcode " + strconv.Quote(string(op)); err == nil || err.Error() != want {
			t.Errorf("validate(%q) = %v, want %s", op, err, want)
		}
	}
}
