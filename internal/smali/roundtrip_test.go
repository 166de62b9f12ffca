package smali

import (
	"fmt"
	"reflect"
	"testing"
)

// opExamples holds one representative, operand-valid instruction per opcode.
var opExamples = map[Op][]string{
	OpSetContentView:   {"@layout/main"},
	OpSetClickListener: {"@id/btn", "onClick"},
	OpToggleVisible:    {"@id/drawer"},
	OpSetText:          {"@id/label", "hello world"},

	OpNewIntent:       {"p.A", "p.B"},
	OpSetClass:        {"p.A", "p.B"},
	OpNewIntentAction: {"com.x.ACTION"},
	OpSetAction:       {"com.x.ACTION"},
	OpPutExtra:        {"key", `va"l\ue` + "\n"},
	OpStartActivity:   {},
	OpSendBroadcast:   {"android.intent.action.BOOT_COMPLETED"},
	OpFinish:          {},

	OpGetFragmentManager:        {},
	OpGetSupportFragmentManager: {},
	OpBeginTransaction:          {},
	OpTxnAdd:                    {"@id/c", "p.F"},
	OpTxnReplace:                {"@id/c", "p.F"},
	OpTxnRemove:                 {"p.F"},
	OpTxnCommit:                 {},
	OpInflateView:               {"@id/c", "p.F"},

	OpNewInstance: {"p.F"},
	OpInvokeNewIn: {"p.F"},
	OpInstanceOf:  {"p.F"},

	OpShowDialog:   {"Are you sure?"},
	OpShowPopup:    {"menu"},
	OpRequireInput: {"@id/field", "expected value"},
	OpRequireExtra: {"token"},
	OpCrash:        {"boom"},

	OpInvokeSensitive: {"internet/connect"},
	OpLoadLibrary:     {"native-lib"},
	OpLog:             {""},
	OpNop:             {},
}

// TestEveryOpcodeRoundTrips writes a class containing one instruction per
// opcode, parses it back, and demands structural equality — the writer and
// parser must agree on the whole instruction set, including escaping. The
// examples must cover every opcode lookupOp's table knows.
func TestEveryOpcodeRoundTrips(t *testing.T) {
	known := tableOps(t)
	for _, op := range known {
		if _, ok := opExamples[op]; !ok {
			t.Errorf("opcode %s has no round-trip example", op)
		}
	}
	if len(opExamples) != len(known) || t.Failed() {
		t.Fatalf("%d examples for %d opcodes", len(opExamples), len(known))
	}
	c := &Class{Name: "p.RoundTrip", Super: ClassActivity, Access: []string{"public"}}
	i := 0
	for op, args := range opExamples {
		m := &Method{
			Name: fmt.Sprintf("m%02d_%s", i, identOf(op)),
			Body: []Instr{{Op: op, Args: append([]string(nil), args...)}},
		}
		c.Methods = append(c.Methods, m)
		i++
	}
	src := WriteClass(c)
	back, err := ParseClass("roundtrip.smali", src)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, src)
	}
	if len(back.Methods) != len(c.Methods) {
		t.Fatalf("method count %d != %d", len(back.Methods), len(c.Methods))
	}
	for j, m := range c.Methods {
		bm := back.Methods[j]
		if bm.Name != m.Name || len(bm.Body) != 1 {
			t.Fatalf("method %s mangled: %+v", m.Name, bm)
		}
		got, want := bm.Body[0], m.Body[0]
		argsEqual := len(got.Args) == len(want.Args) &&
			(len(got.Args) == 0 || reflect.DeepEqual(got.Args, want.Args))
		if got.Op != want.Op || !argsEqual {
			t.Errorf("%s: %v %q != %v %q", m.Name, got.Op, got.Args, want.Op, want.Args)
		}
	}
}

func identOf(op Op) string {
	out := make([]byte, 0, len(op))
	for i := 0; i < len(op); i++ {
		c := op[i]
		if c == '-' {
			c = '_'
		}
		out = append(out, c)
	}
	return string(out)
}
