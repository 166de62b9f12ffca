package sensitive

import (
	"reflect"
	"testing"
)

func TestCatalogShape(t *testing.T) {
	if len(Catalog) != 46 {
		t.Fatalf("catalog size = %d, want 46 (the paper found 46 sensitive APIs)", len(Catalog))
	}
	seen := make(map[string]bool)
	for _, api := range Catalog {
		if seen[api] {
			t.Errorf("duplicate catalog entry %s", api)
		}
		seen[api] = true
		if Category(api) == "other" {
			t.Errorf("catalog entry %s has no category", api)
		}
		if !Known(api) {
			t.Errorf("Known(%s) = false", api)
		}
	}
	if Known("bogus/api") {
		t.Error("unknown API reported known")
	}
}

func TestCategories(t *testing.T) {
	cats := Categories()
	want := []string{"browser", "identification", "internet", "ipc", "location",
		"media", "messages", "network", "phone", "shell", "storage", "system", "view"}
	if !reflect.DeepEqual(cats, want) {
		t.Fatalf("Categories = %v", cats)
	}
}

func TestSortAPIs(t *testing.T) {
	apis := []string{"view/loadUrl", "browser/Downloads", "internet/inet", "internet/connect", "zzz/unknown"}
	SortAPIs(apis)
	want := []string{"browser/Downloads", "internet/connect", "internet/inet", "view/loadUrl", "zzz/unknown"}
	if !reflect.DeepEqual(apis, want) {
		t.Fatalf("SortAPIs = %v", apis)
	}
}

func ev(api, class string, inFrag bool) Event {
	return Event{API: api, Class: class, InFragment: inFrag, Activity: "a.Main"}
}

func TestCollectorMarks(t *testing.T) {
	c := NewCollector("com.app")
	c.Observe(ev("internet/connect", "a.Main", false))
	c.Observe(ev("internet/connect", "a.Main", false))
	c.Observe(ev("storage/sdcard", "a.Frag", true))
	c.Observe(ev("location/getProviders", "a.Main", false))
	c.Observe(ev("location/getProviders", "a.Frag", true))

	us := c.Usages()
	if len(us) != 3 {
		t.Fatalf("usages = %+v", us)
	}
	byAPI := make(map[string]Usage)
	for _, u := range us {
		byAPI[u.API] = u
	}
	if m := byAPI["internet/connect"].Mark(); m != MarkActivity {
		t.Errorf("connect mark = %v", m)
	}
	if m := byAPI["storage/sdcard"].Mark(); m != MarkFragment {
		t.Errorf("sdcard mark = %v", m)
	}
	if m := byAPI["location/getProviders"].Mark(); m != MarkBoth {
		t.Errorf("getProviders mark = %v", m)
	}
	if byAPI["internet/connect"].Count != 2 {
		t.Errorf("count = %d", byAPI["internet/connect"].Count)
	}
	if got := byAPI["location/getProviders"].Classes; !reflect.DeepEqual(got, []string{"a.Frag", "a.Main"}) {
		t.Errorf("classes = %v", got)
	}
	// Usages sorted in catalog row order: internet < location < storage.
	if us[0].API != "internet/connect" || us[2].API != "storage/sdcard" {
		t.Errorf("order = %v", us)
	}
}

func TestMarkRendering(t *testing.T) {
	cases := []struct {
		m     Mark
		sym   string
		ascii string
	}{
		{MarkNone, " ", "."},
		{MarkActivity, "●", "A"},
		{MarkFragment, "◐", "F"},
		{MarkBoth, "⊙", "B"},
	}
	for _, tc := range cases {
		if tc.m.String() != tc.sym || tc.m.ASCII() != tc.ascii {
			t.Errorf("mark %d renders %q/%q", tc.m, tc.m.String(), tc.m.ASCII())
		}
	}
}

func TestMatrixAndStats(t *testing.T) {
	c1 := NewCollector("app1")
	c1.Observe(ev("internet/connect", "x.A", false)) // ● 1 relation
	c1.Observe(ev("storage/sdcard", "x.F", true))    // ◐ 1 relation, frag-only
	c2 := NewCollector("app2")
	c2.Observe(ev("internet/connect", "y.A", false))
	c2.Observe(ev("internet/connect", "y.F", true)) // ⊙ 2 relations

	m := NewMatrix([]*Collector{c1, c2})
	if !reflect.DeepEqual(m.Apps, []string{"app1", "app2"}) {
		t.Fatalf("apps = %v", m.Apps)
	}
	if !reflect.DeepEqual(m.APIs, []string{"internet/connect", "storage/sdcard"}) {
		t.Fatalf("apis = %v", m.APIs)
	}
	if m.Cell("internet/connect", "app2") != MarkBoth {
		t.Errorf("cell = %v", m.Cell("internet/connect", "app2"))
	}
	if m.Cell("storage/sdcard", "app2") != MarkNone {
		t.Errorf("empty cell = %v", m.Cell("storage/sdcard", "app2"))
	}

	s := m.ComputeStats()
	if s.DistinctAPIs != 2 {
		t.Errorf("DistinctAPIs = %d", s.DistinctAPIs)
	}
	if s.TotalInvocations != 4 { // ● + ◐ + ⊙(2)
		t.Errorf("TotalInvocations = %d", s.TotalInvocations)
	}
	if s.FragmentRelations != 2 || s.FragmentOnly != 1 {
		t.Errorf("frag relations = %d/%d", s.FragmentRelations, s.FragmentOnly)
	}
	if s.FragmentShare != 0.5 || s.FragmentOnlyShare != 0.25 {
		t.Errorf("shares = %v/%v", s.FragmentShare, s.FragmentOnlyShare)
	}
	if s.String() == "" {
		t.Error("empty stats string")
	}
}

func TestEmptyMatrixStats(t *testing.T) {
	m := NewMatrix(nil)
	s := m.ComputeStats()
	if s.TotalInvocations != 0 || s.FragmentShare != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestCollectorUsagesOrder observes every catalog API in reverse order, and
// two APIs outside it: one of a catalog category, which sorts among that
// category's rows, and one of no catalog category, which sorts last. Usages
// must come out in SortAPIs order, with each API's classes sorted.
func TestCollectorUsagesOrder(t *testing.T) {
	c := NewCollector("com.app")
	apis := []string{"zzz/unknown", "location/zzzExtra"}
	for i := len(Catalog) - 1; i >= 0; i-- {
		apis = append(apis, Catalog[i])
	}
	for _, api := range apis {
		c.Observe(ev(api, "a.Z", false))
		c.Observe(ev(api, "a.A", true))
		c.Observe(ev(api, "a.Z", false))
	}
	want := append([]string(nil), apis...)
	SortAPIs(want)
	us := c.Usages()
	if len(us) != len(want) {
		t.Fatalf("%d usages, want %d", len(us), len(want))
	}
	for i, u := range us {
		if u.API != want[i] {
			t.Fatalf("usage %d is %s, want %s", i, u.API, want[i])
		}
		if u.Count != 3 || u.Mark() != MarkBoth || !reflect.DeepEqual(u.Classes, []string{"a.A", "a.Z"}) {
			t.Fatalf("usage %s = %+v", u.API, u)
		}
		if !c.Has(u.API) {
			t.Fatalf("Has(%s) = false", u.API)
		}
	}
	if c.Has("location/never") || c.Has(Catalog[0]+"x") {
		t.Error("Has reports an API never observed")
	}
	m := NewMatrix([]*Collector{c})
	if !reflect.DeepEqual(m.APIs, want) {
		t.Errorf("matrix rows = %v, want %v", m.APIs, want)
	}
	if got := m.Cell("location/zzzExtra", "com.app"); got != MarkBoth {
		t.Errorf("cell of an API outside the catalog = %v", got)
	}
}
