package layout

import (
	"strings"
	"testing"
)

const mainXML = `<?xml version="1.0"?>
<LinearLayout id="@+id/root">
  <Toolbar id="@+id/toolbar">
    <ImageButton id="@+id/btn_drawer" onClick="onToggleDrawer"/>
  </Toolbar>
  <Button id="@+id/btn_next" text="Next" onClick="onNext"/>
  <TextView id="@+id/title" text="Welcome"/>
  <EditText id="@+id/edit_user" hint="Username"/>
  <FrameLayout id="@+id/container"/>
  <fragment id="@+id/home_frag" class="com.example.HomeFragment"/>
  <DrawerLayout id="@+id/drawer" visible="false">
    <Button id="@+id/menu_wallpapers" text="Wallpapers" onClick="onMenuWallpapers"/>
  </DrawerLayout>
</LinearLayout>
`

func mustParse(t *testing.T) *Layout {
	t.Helper()
	l, err := Parse("activity_main", []byte(mainXML))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return l
}

func TestParseTree(t *testing.T) {
	l := mustParse(t)
	if l.Root.Type != TypeLinearLayout {
		t.Fatalf("root type = %s", l.Root.Type)
	}
	if len(l.Root.Children) != 7 {
		t.Fatalf("root children = %d, want 7", len(l.Root.Children))
	}
	ids := l.WidgetIDs()
	want := []string{"@+id/root", "@+id/toolbar", "@+id/btn_drawer", "@+id/btn_next",
		"@+id/title", "@+id/edit_user", "@+id/container", "@+id/home_frag",
		"@+id/drawer", "@+id/menu_wallpapers"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range ids {
		if ids[i] != want[i] {
			t.Errorf("id[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestFindAndFlags(t *testing.T) {
	l := mustParse(t)
	btn := l.Find("@+id/btn_next")
	if btn == nil || !btn.Clickable() {
		t.Fatalf("btn_next not found or not clickable: %+v", btn)
	}
	if btn.OnClick != "onNext" {
		t.Errorf("OnClick = %q", btn.OnClick)
	}
	if tv := l.Find("@+id/title"); tv == nil || tv.Clickable() {
		t.Error("plain TextView must not be clickable")
	}
	if et := l.Find("@+id/edit_user"); et == nil || !et.Input() || et.Clickable() {
		t.Error("EditText must be input, not clickable")
	}
	if d := l.Find("@+id/drawer"); d == nil || !d.Hidden {
		t.Error("drawer must be hidden")
	}
	if mb := l.Find("@+id/menu_wallpapers"); mb == nil || !mb.Clickable() {
		t.Error("drawer menu button must be clickable")
	}
}

func TestStaticFragmentsAndContainers(t *testing.T) {
	l := mustParse(t)
	sf := l.StaticFragments()
	if len(sf) != 1 || sf[0] != "com.example.HomeFragment" {
		t.Fatalf("StaticFragments = %v", sf)
	}
	cs := l.Containers()
	if len(cs) != 1 || cs[0] != "@+id/container" {
		t.Fatalf("Containers = %v", cs)
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	l := mustParse(t)
	data, err := l.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	back, err := Parse(l.Name, data)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, data)
	}
	var origCount, backCount int
	l.Walk(func(*Widget) bool { origCount++; return true })
	back.Walk(func(*Widget) bool { backCount++; return true })
	if origCount != backCount {
		t.Fatalf("widget count %d != %d", origCount, backCount)
	}
	if back.Find("@+id/drawer") == nil || !back.Find("@+id/drawer").Hidden {
		t.Error("Hidden flag lost in round trip")
	}
	if got := back.Find("@+id/home_frag").FragmentClass; got != "com.example.HomeFragment" {
		t.Errorf("fragment class = %q", got)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		xml  string
	}{
		{"dup ids", `<LinearLayout id="@+id/a"><Button id="@+id/a"/></LinearLayout>`},
		{"bad ref", `<LinearLayout id="id/a"/>`},
		{"fragment no class", `<LinearLayout><fragment id="@+id/f"/></LinearLayout>`},
		{"two roots", `<LinearLayout/><LinearLayout/>`},
		{"garbage", `<<<`},
		{"type not an element name", `<p:0 id="@+id/a"/>`},
		{"type not an element name, prefix bound to no namespace", `<p:0 xmlns:p="" id="@+id/a"/>`},
		{"child type not an element name, prefix bound on the parent", `<LinearLayout xmlns:p=""><p:0 id="@+id/a"/></LinearLayout>`},
	}
	for _, tc := range cases {
		if _, err := Parse("l", []byte(tc.xml)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestBuilder(t *testing.T) {
	l := RootN(TypeLinearLayout, 3).ID("@id/root").Child(
		Root(TypeButton).ID("@id/go").Text("Go").OnClick("onGo"),
		Root(TypeFrameLayout).ID("@id/c"),
		Root(TypeDrawerLayout).ID("@id/dw").HiddenW().Child(
			Root(TypeButton).ID("@id/m1").OnClick("onM1"),
		),
	).BuildLayout("test")
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if l.Find("@id/go") == nil || !l.Find("@id/dw").Hidden {
		t.Fatal("builder lost structure")
	}
	// The apk codec records nil-ness: a built leaf keeps an empty, non-nil
	// child list. A list sized by RootN is never regrown.
	if leaf := l.Find("@id/go"); leaf.Children == nil || len(leaf.Children) != 0 {
		t.Errorf("built leaf has Children %#v, want empty and non-nil", leaf.Children)
	}
	if n, c := len(l.Root.Children), cap(l.Root.Children); n != 3 || c != 3 {
		t.Errorf("RootN(_, 3) with three children: len %d cap %d, want 3 and 3", n, c)
	}
	// BuildLayout does not validate: the apk assembly and Encode do.
	dup := Root(TypeLinearLayout).ID("@id/a").Child(Root(TypeButton).ID("@id/a")).BuildLayout("dup")
	if _, err := dup.Encode(); err == nil || !strings.Contains(err.Error(), "duplicate widget id") {
		t.Errorf("Encode of a layout with a duplicate id: err %v, want duplicate widget id", err)
	}
	// Builder output must survive an encode/parse cycle.
	data, err := l.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if _, err := Parse("test", data); err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !strings.Contains(string(data), `onClick="onGo"`) {
		t.Errorf("encoded builder layout missing onClick:\n%s", data)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	l := mustParse(t)
	n := 0
	l.Walk(func(w *Widget) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d, want 3", n)
	}
}
