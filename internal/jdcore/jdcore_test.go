package jdcore

import (
	"strings"
	"testing"

	"fragdroid/internal/smali"
)

func lowerProgram(t *testing.T) *Program {
	t.Helper()
	files := map[string][]byte{
		"smali/com/ex/MainActivity.smali": []byte(`
.class public Lcom/ex/MainActivity;
.super Landroid/app/Activity;
.method public onCreate()V
    set-content-view @layout/main
    set-click-listener @id/btn onGo
    get-support-fragment-manager
    begin-transaction
    txn-replace @id/container Lcom/ex/HomeFragment;
    txn-commit
    invoke-sensitive "location/getProviders"
    load-library "native-lib"
.end method
.method public onGo()V
    new-intent Lcom/ex/MainActivity; Lcom/ex/NextActivity;
    put-extra "k" "v"
    start-activity
.end method
.method public onSearch()V
    new-intent-action "com.ex.SEARCH"
    set-action "com.ex.SEARCH2"
    start-activity
.end method
`),
		"smali/com/ex/NextActivity.smali": []byte(`
.class public Lcom/ex/NextActivity;
.super Landroid/app/Activity;
.method public onCreate()V
    new-instance Lcom/ex/HomeFragment;
    invoke-newinstance Lcom/ex/HomeFragment;
    instance-of Lcom/ex/HomeFragment;
    inflate-view @id/c2 Lcom/ex/HomeFragment;
.end method
`),
		"smali/com/ex/HomeFragment.smali": []byte(`
.class public Lcom/ex/HomeFragment;
.super Landroid/app/Fragment;
.method public onCreateView()V
    nop
.end method
`),
	}
	sp, err := smali.ParseProgram(files)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	return Decompile(sp)
}

func TestDecompileStructure(t *testing.T) {
	p := lowerProgram(t)
	if len(p.Names()) != 3 {
		t.Fatalf("Names = %v", p.Names())
	}
	mc := p.Class("com.ex.MainActivity")
	if mc == nil || len(mc.Methods) != 3 {
		t.Fatalf("MainActivity = %+v", mc)
	}
	if mc.Super != smali.ClassActivity {
		t.Errorf("Super = %q", mc.Super)
	}
}

func TestLoweredKinds(t *testing.T) {
	p := lowerProgram(t)
	oc := p.Class("com.ex.MainActivity").Method("onCreate")
	want := []StmtKind{StmtSetContentView, StmtSetClickListener, StmtGetFragmentManager,
		StmtBeginTransaction, StmtTxnReplace, StmtTxnCommit, StmtSensitiveCall, StmtSensitiveCall}
	if len(oc.Statements) != len(want) {
		t.Fatalf("statements = %d, want %d", len(oc.Statements), len(want))
	}
	for i, s := range oc.Statements {
		if s.Kind != want[i] {
			t.Errorf("stmt[%d].Kind = %d, want %d (%+v)", i, s.Kind, want[i], s)
		}
	}
	if !oc.Statements[2].Support {
		t.Error("getSupportFragmentManager not marked Support")
	}
	if oc.Statements[4].Class1 != "com.ex.HomeFragment" || oc.Statements[4].Res != "@id/container" {
		t.Errorf("txn-replace operands: %+v", oc.Statements[4])
	}
	if oc.Statements[7].API != "shell/loadLibrary" {
		t.Errorf("load-library API = %q", oc.Statements[7].API)
	}
}

func TestIntentStatements(t *testing.T) {
	p := lowerProgram(t)
	onGo := p.Class("com.ex.MainActivity").Method("onGo")
	ni := onGo.Statements[0]
	if ni.Kind != StmtNewIntentExplicit || ni.Class1 != "com.ex.MainActivity" || ni.Class2 != "com.ex.NextActivity" {
		t.Fatalf("new-intent lowered wrong: %+v", ni)
	}
	if src := RenderJava(p.Class("com.ex.MainActivity")); !strings.Contains(src, "Intent intent = new Intent(MainActivity.class, NextActivity.class);") {
		t.Errorf("RenderJava misses the explicit intent:\n%s", src)
	}
	if pe := onGo.Statements[1]; pe.Kind != StmtPutExtra || pe.Key != "k" || pe.Value != "v" {
		t.Errorf("put-extra should lower to StmtPutExtra{k,v}, got %+v", pe)
	}
	search := p.Class("com.ex.MainActivity").Method("onSearch")
	if search.Statements[0].Kind != StmtNewIntentAction || search.Statements[0].Action != "com.ex.SEARCH" {
		t.Errorf("new-intent-action: %+v", search.Statements[0])
	}
	if search.Statements[1].Kind != StmtSetAction || search.Statements[1].Action != "com.ex.SEARCH2" {
		t.Errorf("set-action: %+v", search.Statements[1])
	}
}

func TestObjectPatternStatements(t *testing.T) {
	p := lowerProgram(t)
	oc := p.Class("com.ex.NextActivity").Method("onCreate")
	kinds := []StmtKind{StmtNewInstance, StmtNewInstanceCall, StmtInstanceOf, StmtInflateFragmentView}
	for i, k := range kinds {
		if oc.Statements[i].Kind != k {
			t.Errorf("stmt[%d].Kind = %d, want %d", i, oc.Statements[i].Kind, k)
		}
		if oc.Statements[i].Class1 != "com.ex.HomeFragment" {
			t.Errorf("stmt[%d].Class1 = %q", i, oc.Statements[i].Class1)
		}
	}
	if src := RenderJava(p.Class("com.ex.NextActivity")); !strings.Contains(src, "HomeFragment obj = HomeFragment.newInstance();") {
		t.Errorf("RenderJava misses the newInstance call:\n%s", src)
	}
}

// TestRenderJava checks the rendered lines, among them the two that come
// from the original instruction rather than the statement: a loadLibrary
// call prints its argument and an uninteresting instruction prints itself.
func TestRenderJava(t *testing.T) {
	p := lowerProgram(t)
	src := RenderJava(p.Class("com.ex.MainActivity"))
	for _, want := range []string{
		"public class MainActivity extends Activity {",
		"public void onCreate() {",
		"setContentView(R.layout.main);",
		"FragmentManager fm = getSupportFragmentManager();",
		"txn.replace(R.id.container, new HomeFragment());",
		"// sensitive: location/getProviders",
		`System.loadLibrary("native-lib");`,
		`intent.putExtra("k", "v");`,
		"startActivity(intent);",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("RenderJava missing %q:\n%s", want, src)
		}
	}
	const frag = "public class HomeFragment extends Fragment {\n" +
		"    public void onCreateView() {\n" +
		"        // nop\n" +
		"    }\n" +
		"}\n"
	if got := RenderJava(p.Class("com.ex.HomeFragment")); got != frag {
		t.Errorf("RenderJava(HomeFragment) = %q, want %q", got, frag)
	}
}

func TestLowerUnknownMethodLookup(t *testing.T) {
	p := lowerProgram(t)
	if p.Class("com.ex.MainActivity").Method("nope") != nil {
		t.Error("Method lookup of missing method must be nil")
	}
	if p.Class("no.such.Class") != nil {
		t.Error("Class lookup of missing class must be nil")
	}
}

func TestSendBroadcastLowering(t *testing.T) {
	sp, err := smali.ParseProgram(map[string][]byte{
		"r.smali": []byte(`
.class Lp/R;
.super Landroid/content/BroadcastReceiver;
.method onReceive()V
    send-broadcast "p.PING"
.end method
`),
	})
	if err != nil {
		t.Fatal(err)
	}
	p := Decompile(sp)
	st := p.Class("p.R").Method("onReceive").Statements[0]
	if st.Action != "p.PING" {
		t.Fatalf("action = %q", st.Action)
	}
	if src := RenderJava(p.Class("p.R")); !strings.Contains(src, `sendBroadcast(new Intent("p.PING"));`) {
		t.Fatalf("RenderJava misses the broadcast:\n%s", src)
	}
}
