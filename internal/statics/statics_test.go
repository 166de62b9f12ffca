package statics

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"fragdroid/internal/aftm"
	"fragdroid/internal/corpus"
)

const pkg = "com.demo.app."

func demoExtraction(t *testing.T) *Extraction {
	t.Helper()
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatalf("BuildApp: %v", err)
	}
	ex, err := Extract(app)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	return ex
}

func TestEffectiveActivities(t *testing.T) {
	ex := demoExtraction(t)
	want := []string{
		pkg + "Account", pkg + "Detail", pkg + "Login", pkg + "Main",
		pkg + "Secret", pkg + "Settings", pkg + "Share",
	}
	if !reflect.DeepEqual(ex.EffectiveActivities, want) {
		t.Fatalf("EffectiveActivities = %v\nwant %v", ex.EffectiveActivities, want)
	}
	// The isolated activity was filtered out.
	for _, a := range ex.EffectiveActivities {
		if a == pkg+"Lonely" {
			t.Fatal("isolated activity not filtered")
		}
	}
}

func TestEffectiveFragments(t *testing.T) {
	ex := demoExtraction(t)
	want := []string{
		pkg + "About", pkg + "Ghost", pkg + "Home", pkg + "Lab",
		pkg + "News", pkg + "Promo", pkg + "Recent", pkg + "VIP",
	}
	if !reflect.DeepEqual(ex.EffectiveFragments, want) {
		t.Fatalf("EffectiveFragments = %v\nwant %v", ex.EffectiveFragments, want)
	}
}

func TestAFTMEdges(t *testing.T) {
	ex := demoExtraction(t)
	c := ex.Model.Count()
	if c.E1 != 6 {
		t.Errorf("E1 = %d, want 6\n%v", c.E1, ex.Model.Edges())
	}
	if c.E2 != 8 {
		t.Errorf("E2 = %d, want 8\n%v", c.E2, ex.Model.Edges())
	}
	if c.E3 != 1 {
		t.Errorf("E3 = %d, want 1\n%v", c.E3, ex.Model.Edges())
	}
	entry, ok := ex.Model.Entry()
	if !ok || entry != aftm.ActivityNode(pkg+"Main") {
		t.Fatalf("entry = %v, %v", entry, ok)
	}
	// Spot checks.
	mustEdge := func(from, to aftm.Node, kind aftm.EdgeKind) {
		t.Helper()
		e, ok := ex.Model.EdgeBetween(from, to)
		if !ok || e.Kind != kind {
			t.Errorf("edge %v -> %v: got %+v, %v", from, to, e, ok)
		}
	}
	mustEdge(aftm.ActivityNode(pkg+"Main"), aftm.ActivityNode(pkg+"Detail"), aftm.E1)
	mustEdge(aftm.ActivityNode(pkg+"Main"), aftm.ActivityNode(pkg+"Secret"), aftm.E1)
	mustEdge(aftm.ActivityNode(pkg+"Detail"), aftm.ActivityNode(pkg+"Share"), aftm.E1)
	mustEdge(aftm.ActivityNode(pkg+"Main"), aftm.FragmentNode(pkg+"VIP"), aftm.E2)
	mustEdge(aftm.ActivityNode(pkg+"Settings"), aftm.FragmentNode(pkg+"Lab"), aftm.E2)
	mustEdge(aftm.FragmentNode(pkg+"Home"), aftm.FragmentNode(pkg+"Recent"), aftm.E3)
	// The action edge records its action in Via.
	e, _ := ex.Model.EdgeBetween(aftm.ActivityNode(pkg+"Detail"), aftm.ActivityNode(pkg+"Share"))
	if e.Via != aftm.ViaAction("com.demo.app.SHARE") {
		t.Errorf("action edge Via = %q", e.Via)
	}
}

func TestDependencies(t *testing.T) {
	ex := demoExtraction(t)
	want := map[string][]string{
		pkg + "Main":     {pkg + "Home", pkg + "News", pkg + "Recent", pkg + "VIP"},
		pkg + "Detail":   {pkg + "Promo"},
		pkg + "Settings": {pkg + "About", pkg + "Ghost", pkg + "Lab"},
	}
	for a, frags := range want {
		if got := ex.Deps.FragmentsOf[a]; !reflect.DeepEqual(got, frags) {
			t.Errorf("FragmentsOf[%s] = %v, want %v", a, got, frags)
		}
	}
	if h, ok := ex.Deps.PrimaryHost(pkg + "Promo"); !ok || h != pkg+"Detail" {
		t.Errorf("PrimaryHost(Promo) = %q, %v", h, ok)
	}
	if _, ok := ex.Deps.PrimaryHost(pkg + "Nope"); ok {
		t.Error("PrimaryHost of unknown fragment")
	}
}

func TestFragmentManagerFlags(t *testing.T) {
	ex := demoExtraction(t)
	if !ex.UsesFragmentManager[pkg+"Main"] {
		t.Error("Main must use FragmentManager")
	}
	if !ex.UsesFragmentManager[pkg+"Detail"] {
		t.Error("Detail must use FragmentManager")
	}
	if ex.UsesFragmentManager[pkg+"Settings"] {
		t.Error("Settings must NOT use FragmentManager (inflate/static only)")
	}
	if ex.SupportFM[pkg+"Main"] {
		t.Error("Main marked support FM without using it")
	}
}

func TestContainers(t *testing.T) {
	ex := demoExtraction(t)
	if got := ex.Containers[pkg+"Main"]; len(got) != 1 || got[0] != "@id/main_container" {
		t.Errorf("Containers[Main] = %v", got)
	}
	if got := ex.Containers[pkg+"Settings"]; len(got) != 1 || got[0] != "@id/settings_container" {
		t.Errorf("Containers[Settings] = %v", got)
	}
	if got := ex.Containers[pkg+"Share"]; len(got) != 0 {
		t.Errorf("Containers[Share] = %v", got)
	}
}

func TestResourceDependency(t *testing.T) {
	ex := demoExtraction(t)
	// A widget of Main's layout belongs to Main.
	locs := ex.ResDeps.OwnersOf(corpus.NavButtonRef("Main", "Detail"))
	if len(locs) != 1 || locs[0].Owner != pkg+"Main" || locs[0].OwnerKind != OwnerActivity {
		t.Fatalf("nav button owner = %+v", locs)
	}
	// A fragment-layout widget belongs to the fragment.
	locs = ex.ResDeps.OwnersOf(corpus.SwitchButtonRef("Home", "Recent"))
	if len(locs) != 1 || locs[0].Owner != pkg+"Home" || locs[0].OwnerKind != OwnerFragment {
		t.Fatalf("switch button owner = %+v", locs)
	}
	// Plain TextViews never referenced in code are ruled out.
	if locs := ex.ResDeps.OwnersOf("@id/main_title"); len(locs) != 0 {
		t.Errorf("non-interactive widget kept: %+v", locs)
	}
}

func TestInputDiscovery(t *testing.T) {
	ex := demoExtraction(t)
	if len(ex.InputWidgets) != 1 {
		t.Fatalf("InputWidgets = %+v", ex.InputWidgets)
	}
	in := ex.InputWidgets[0]
	if in.Ref != "@id/login_input_account" || in.Owner != pkg+"Login" || in.Type != "EditText" {
		t.Fatalf("input = %+v", in)
	}
	if !strings.Contains(in.Hint, "Account") {
		t.Errorf("hint = %q", in.Hint)
	}
}

func TestInputFileRoundTrip(t *testing.T) {
	ex := demoExtraction(t)
	tmpl, err := ex.InputTemplateJSON()
	if err != nil {
		t.Fatal(err)
	}
	// Analyst fills in the value.
	var ws []InputWidget
	if err := json.Unmarshal(tmpl, &ws); err != nil {
		t.Fatal(err)
	}
	for i := range ws {
		ws[i].Value = "alice"
	}
	filled, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := ParseInputValues(filled)
	if err != nil {
		t.Fatal(err)
	}
	if vals["@id/login_input_account"] != "alice" {
		t.Fatalf("vals = %v", vals)
	}
	// Empty values are dropped.
	vals2, err := ParseInputValues(tmpl)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals2) != 0 {
		t.Fatalf("unfilled template produced values: %v", vals2)
	}
	if _, err := ParseInputValues([]byte("{")); err == nil {
		t.Error("garbage input file: want error")
	}
}

func TestMetaJSON(t *testing.T) {
	ex := demoExtraction(t)
	data, err := ex.MetaJSON()
	if err != nil {
		t.Fatal(err)
	}
	var m Meta
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("meta not valid JSON: %v", err)
	}
	if m.Package != "com.demo.app" || m.EntryActivity != pkg+"Main" {
		t.Fatalf("meta header = %+v", m)
	}
	if len(m.Activities) != 7 || len(m.Fragments) != 8 {
		t.Fatalf("meta counts = %d/%d", len(m.Activities), len(m.Fragments))
	}
	if len(m.Widgets) == 0 {
		t.Fatal("meta has no widget locations")
	}
	if !reflect.DeepEqual(m.UsesFragmentManager,
		[]string{pkg + "Detail", pkg + "Home", pkg + "Main"}) {
		t.Fatalf("UsesFragmentManager = %v", m.UsesFragmentManager)
	}
	if m.Containers[pkg+"Main"] != "@id/main_container" {
		t.Fatalf("meta containers = %v", m.Containers)
	}
}
