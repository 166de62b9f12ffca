package smali

import (
	"reflect"
	"testing"
	"testing/quick"
)

// buildProgram assembles a small app-shaped class hierarchy:
//
//	MainActivity (Activity) ─ uses HomeFragment, has inner class MainActivity$1
//	BaseFragment (Fragment) <- HomeFragment <- PromoFragment
//	SettingsActivity (FragmentActivity via support)
//	Helper (plain Object subclass)
func buildProgram(t *testing.T) *Program {
	t.Helper()
	files := map[string][]byte{
		"smali/com/ex/MainActivity.smali": []byte(`
.class public Lcom/ex/MainActivity;
.super Landroid/app/Activity;
.method public onCreate()V
    set-content-view @layout/main
    new-instance Lcom/ex/Helper;
.end method
`),
		"smali/com/ex/MainActivity$1.smali": []byte(`
.class Lcom/ex/MainActivity$1;
.super Ljava/lang/Object;
.method public run()V
    invoke-newinstance Lcom/ex/HomeFragment;
.end method
`),
		"smali/com/ex/BaseFragment.smali": []byte(`
.class public Lcom/ex/BaseFragment;
.super Landroid/app/Fragment;
`),
		"smali/com/ex/HomeFragment.smali": []byte(`
.class public Lcom/ex/HomeFragment;
.super Lcom/ex/BaseFragment;
`),
		"smali/com/ex/PromoFragment.smali": []byte(`
.class public Lcom/ex/PromoFragment;
.super Lcom/ex/HomeFragment;
.requires-args
`),
		"smali/com/ex/SettingsActivity.smali": []byte(`
.class public Lcom/ex/SettingsActivity;
.super Landroid/support/v4/app/FragmentActivity;
`),
		"smali/com/ex/Helper.smali": []byte(`
.class Lcom/ex/Helper;
.super Ljava/lang/Object;
`),
	}
	p, err := ParseProgram(files)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	return p
}

func TestSuperChain(t *testing.T) {
	p := buildProgram(t)
	got := p.SuperChain("com.ex.PromoFragment")
	want := []string{"com.ex.HomeFragment", "com.ex.BaseFragment", ClassFragment}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SuperChain = %v, want %v", got, want)
	}
	if chain := p.SuperChain("com.ex.Helper"); len(chain) != 1 || chain[0] != ClassObject {
		t.Fatalf("Helper chain = %v", chain)
	}
	if chain := p.SuperChain("no.such.Class"); chain != nil {
		t.Fatalf("missing class chain = %v", chain)
	}
}

func TestSuperChainCycleIsBroken(t *testing.T) {
	p := NewProgram()
	a := &Class{Name: "p.A", Super: "p.B"}
	b := &Class{Name: "p.B", Super: "p.A"}
	if err := p.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(b); err != nil {
		t.Fatal(err)
	}
	chain := p.SuperChain("p.A")
	if len(chain) > 2 {
		t.Fatalf("cycle not broken: %v", chain)
	}
}

func TestClassification(t *testing.T) {
	p := buildProgram(t)
	if !p.IsActivityClass("com.ex.MainActivity") {
		t.Error("MainActivity not classified as activity")
	}
	if !p.IsActivityClass("com.ex.SettingsActivity") {
		t.Error("support FragmentActivity subclass not classified as activity")
	}
	if p.IsActivityClass("com.ex.HomeFragment") {
		t.Error("fragment misclassified as activity")
	}
	for _, f := range []string{"com.ex.BaseFragment", "com.ex.HomeFragment", "com.ex.PromoFragment"} {
		if !p.IsFragmentClass(f) {
			t.Errorf("%s not classified as fragment", f)
		}
	}
	wantFrags := []string{"com.ex.BaseFragment", "com.ex.HomeFragment", "com.ex.PromoFragment"}
	if got := p.FragmentClasses(); !reflect.DeepEqual(got, wantFrags) {
		t.Errorf("FragmentClasses = %v", got)
	}
	if !p.HasFragmentClass() {
		t.Error("HasFragmentClass = false with three fragment classes")
	}
	noFrags := NewProgram()
	for _, c := range []*Class{
		{Name: "p.Main", Super: ClassActivity},
		{Name: "p.Cycle", Super: "p.Cycle"},
		{Name: "p.Helper", Super: ClassObject},
	} {
		if err := noFrags.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if noFrags.HasFragmentClass() {
		t.Error("HasFragmentClass = true with no fragment class")
	}
	wantActs := []string{"com.ex.MainActivity", "com.ex.SettingsActivity"}
	if got := p.ActivityClasses(); !reflect.DeepEqual(got, wantActs) {
		t.Errorf("ActivityClasses = %v", got)
	}
}

func TestInnerAndUsedClasses(t *testing.T) {
	p := buildProgram(t)
	if got := p.InnerClasses("com.ex.MainActivity"); !reflect.DeepEqual(got, []string{"com.ex.MainActivity$1"}) {
		t.Fatalf("InnerClasses = %v", got)
	}
	if got := p.ClassAndInner("com.ex.MainActivity"); len(got) != 2 || got[0] != "com.ex.MainActivity" {
		t.Fatalf("ClassAndInner = %v", got)
	}
	if got := p.UsedClasses("com.ex.MainActivity"); !reflect.DeepEqual(got, []string{"com.ex.Helper"}) {
		t.Fatalf("UsedClasses(Main) = %v", got)
	}
	if got := p.UsedClasses("com.ex.MainActivity$1"); !reflect.DeepEqual(got, []string{"com.ex.HomeFragment"}) {
		t.Fatalf("UsedClasses(Main$1) = %v", got)
	}
}

func TestOuter(t *testing.T) {
	c := &Class{Name: "a.b.C$2"}
	if c.Outer() != "a.b.C" {
		t.Fatalf("Outer = %q", c.Outer())
	}
	c = &Class{Name: "a.b.C"}
	if c.Outer() != "" {
		t.Fatalf("Outer of top-level = %q", c.Outer())
	}
}

func TestValidateRejectsDanglingReferences(t *testing.T) {
	files := map[string][]byte{
		"a.smali": []byte(".class Lp/A;\n.super Lp/Missing;\n"),
	}
	if _, err := ParseProgram(files); err == nil {
		t.Error("dangling super: want error")
	}
	files = map[string][]byte{
		"a.smali": []byte(".class Lp/A;\n.super Ljava/lang/Object;\n.method m()V\nnew-instance Lp/Nope;\n.end method\n"),
	}
	if _, err := ParseProgram(files); err == nil {
		t.Error("dangling reference: want error")
	}
	// Of two unknown classes, the error names the smaller, wherever the
	// body references it.
	files = map[string][]byte{
		"a.smali": []byte(".class Lp/A;\n.super Ljava/lang/Object;\n.method m()V\n" +
			"new-instance Lp/Zed;\nnew-instance Lp/Abe;\nnew-instance Lp/Zed;\n.end method\n"),
	}
	_, err := ParseProgram(files)
	if want := "smali: class p.A references unknown class p.Abe"; err == nil || err.Error() != want {
		t.Errorf("two dangling references: got error %v, want %q", err, want)
	}
}

func TestAddDuplicate(t *testing.T) {
	p := NewProgram()
	if err := p.Add(&Class{Name: "p.A", Super: ClassObject}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(&Class{Name: "p.A", Super: ClassObject}); err == nil {
		t.Fatal("duplicate Add: want error")
	}
	if err := p.Add(&Class{}); err == nil {
		t.Fatal("empty name: want error")
	}
}

func TestDescriptorRoundTrip(t *testing.T) {
	f := func(segs []string) bool {
		// Build a plausible dotted name from non-empty alpha segments.
		var parts []string
		for _, s := range segs {
			clean := ""
			for _, r := range s {
				if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
					clean += string(r)
				}
			}
			if clean != "" {
				parts = append(parts, clean)
			}
		}
		if len(parts) == 0 {
			return true
		}
		dotted := parts[0]
		for _, p := range parts[1:] {
			dotted += "." + p
		}
		back, err := FromDescriptor(ToDescriptor(dotted))
		return err == nil && back == dotted
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromDescriptorErrors(t *testing.T) {
	for _, bad := range []string{"", "L;", "Lfoo", "foo;", "X", "Lp/A"} {
		if _, err := FromDescriptor(bad); err == nil {
			t.Errorf("FromDescriptor(%q): want error", bad)
		}
	}
}

func TestFrameworkClass(t *testing.T) {
	if !FrameworkClass("android.app.Activity") || !FrameworkClass("java.lang.Object") {
		t.Error("framework classes not recognized")
	}
	if FrameworkClass("com.example.Main") {
		t.Error("app class flagged as framework")
	}
}
