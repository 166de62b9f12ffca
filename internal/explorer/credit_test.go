package explorer

import (
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/statics"
)

// TestIdentifyFragments pins the §VII-B2 crediting rule every engine that
// credits fragments applies, on a hand-built extraction and dump: a
// fragment counts only if the FragmentManager confirms it and, when it owns
// widgets, a visible one of them identifies it.
func TestIdentifyFragments(t *testing.T) {
	fragWidget := func(ref, owner string) []statics.WidgetLocation {
		return []statics.WidgetLocation{{Ref: ref, Owner: owner, OwnerKind: statics.OwnerFragment}}
	}
	ex := &statics.Extraction{ResDeps: &statics.ResourceDeps{
		ByWidget: map[string][]statics.WidgetLocation{
			"@id/a_go":    fragWidget("@id/a_go", "A"),
			"@id/b_go":    fragWidget("@id/b_go", "B"),
			"@id/host_go": {{Ref: "@id/host_go", Owner: "Host", OwnerKind: statics.OwnerActivity}},
		},
		ByOwner: map[string][]string{
			"A":    {"@id/a_go"},
			"B":    {"@id/b_go"},
			"Host": {"@id/host_go"},
		},
	}}
	visible := func(ref string) device.WidgetInfo { return device.WidgetInfo{Ref: ref, Visible: true} }
	hidden := func(ref string) device.WidgetInfo { return device.WidgetInfo{Ref: ref} }

	cases := []struct {
		name string
		dump device.UIDump
		want string
	}{
		{"confirmed and identified by a visible widget",
			device.UIDump{FMFragments: []string{"A"}, Widgets: []device.WidgetInfo{visible("@id/a_go")}}, "A"},
		{"confirmed, with no widgets of its own",
			device.UIDump{FMFragments: []string{"N"}}, "N"},
		{"confirmed, but its widgets are hidden",
			device.UIDump{FMFragments: []string{"B"}, Widgets: []device.WidgetInfo{hidden("@id/b_go"), visible("@id/host_go")}}, ""},
		{"shown without a FragmentManager",
			device.UIDump{Widgets: []device.WidgetInfo{visible("@id/a_go"), visible("@id/b_go")}}, ""},
		{"sorted and comma-joined, skipping the uncredited",
			device.UIDump{FMFragments: []string{"A", "B", "M", "N"},
				Widgets: []device.WidgetInfo{visible("@id/b_go"), hidden("@id/a_go")}}, "B,M,N"},
	}
	for _, c := range cases {
		if got := IdentifyFragments(ex, c.dump); got != c.want {
			t.Errorf("%s: IdentifyFragments = %q, want %q", c.name, got, c.want)
		}
	}

	// On the demo app's own resource dependency, a visible widget of Home's
	// layout identifies Home, and one of Main's identifies no fragment.
	demo, err := statics.Extract(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	dump := device.UIDump{FMFragments: []string{pkg + "Home"}, Widgets: []device.WidgetInfo{
		visible(corpus.SwitchButtonRef("Home", "Recent")),
		visible(corpus.NavButtonRef("Main", "Detail")),
	}}
	if got := IdentifyFragments(demo, dump); got != pkg+"Home" {
		t.Errorf("demo: IdentifyFragments = %q, want %q", got, pkg+"Home")
	}
	dump.Widgets = dump.Widgets[1:]
	if got := IdentifyFragments(demo, dump); got != "" {
		t.Errorf("demo, Main's widget only: IdentifyFragments = %q, want none", got)
	}
}
