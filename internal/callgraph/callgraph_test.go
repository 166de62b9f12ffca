package callgraph

import (
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/layout"
	"fragdroid/internal/manifest"
	"fragdroid/internal/smali"
)

func ins(op smali.Op, args ...string) smali.Instr {
	return smali.Instr{Op: op, Args: args}
}

func method(name string, body ...smali.Instr) *smali.Method {
	return &smali.Method{Name: name, Access: []string{"public"}, Body: body}
}

// testApp builds a small app exercising every edge family:
//
//	Main (launcher) --listener/intent--> Next --txn--> HomeFrag
//	Next --send-broadcast--> Rcv (receiver)
//	Orphan: declared but never targeted (forced starts only)
//	RefFrag: referenced by Next (new-instance) and committed only in
//	         Orphan's code, so it is launcher-reachable only through the
//	         reflection mechanism on Next.
func testApp(t *testing.T) *apk.App {
	t.Helper()
	mb := manifest.NewBuilder("com.ex").
		Launcher("com.ex.Main").
		Activity("com.ex.Next").
		Activity("com.ex.Orphan")
	man, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	man.Application.Receivers = append(man.Application.Receivers, manifest.Receiver{
		Name: "com.ex.Rcv",
		Filters: []manifest.IntentFilter{{
			Actions: []manifest.Action{{Name: "com.ex.PING"}},
		}},
	})

	layouts := []*layout.Layout{
		layout.Root(layout.TypeLinearLayout).ID("@id/main_root").
			Child(layout.Root(layout.TypeButton).ID("@id/main_btn_next").Text("next")).
			Child(layout.Root(layout.TypeButton).ID("@id/main_btn_x").Text("x").OnClick("onXML")).
			BuildLayout("activity_main"),
		layout.Root(layout.TypeLinearLayout).ID("@id/next_root").
			Child(layout.Root(layout.TypeFrameLayout).ID("@id/next_container")).
			BuildLayout("activity_next"),
		layout.Root(layout.TypeLinearLayout).ID("@id/home_root").BuildLayout("fragment_home"),
		layout.Root(layout.TypeLinearLayout).ID("@id/ref_root").BuildLayout("fragment_ref"),
	}

	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpSetContentView, "@layout/activity_main"),
				ins(smali.OpSetClickListener, "@id/main_btn_next", "onGoNext")),
			method("onGoNext",
				ins(smali.OpNewIntent, "com.ex.Main", "com.ex.Next"),
				ins(smali.OpStartActivity)),
			method("onXML", ins(smali.OpLog, "xml click")),
			method("deadCode", ins(smali.OpInvokeSensitive, "contacts/query")),
		}},
		{Name: "com.ex.Next", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpSetContentView, "@layout/activity_next"),
				ins(smali.OpInvokeSensitive, "location/getProviders"),
				ins(smali.OpSendBroadcast, "com.ex.PING"),
				ins(smali.OpNewInstance, "com.ex.RefFrag"),
				ins(smali.OpGetFragmentManager),
				ins(smali.OpBeginTransaction),
				ins(smali.OpTxnAdd, "@id/next_container", "com.ex.HomeFrag"),
				ins(smali.OpTxnCommit)),
		}},
		{Name: "com.ex.Orphan", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpInvokeSensitive, "shell/exec"),
				ins(smali.OpGetFragmentManager),
				ins(smali.OpBeginTransaction),
				ins(smali.OpTxnAdd, "@id/next_container", "com.ex.RefFrag"),
				ins(smali.OpTxnCommit)),
		}},
		{Name: "com.ex.HomeFrag", Super: smali.ClassFragment, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreateView", ins(smali.OpSetContentView, "@layout/fragment_home")),
		}},
		{Name: "com.ex.RefFrag", Super: smali.ClassFragment, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreateView", ins(smali.OpSetContentView, "@layout/fragment_ref")),
		}},
		{Name: "com.ex.Rcv", Super: smali.ClassReceiver, Access: []string{"public"}, Methods: []*smali.Method{
			method("onReceive", ins(smali.OpInvokeSensitive, "network/getDeviceId")),
		}},
	}

	app, err := apk.Assemble(man, layouts, classes)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestBuildEdges(t *testing.T) {
	g := Build(testApp(t), nil)

	if g.Launcher() != "com.ex.Main" {
		t.Fatalf("Launcher = %q", g.Launcher())
	}
	wantEdges := []Edge{
		{From: ActivityNode("com.ex.Main"), To: MethodNode("com.ex.Main", "onCreate"), Reason: ReasonLifecycle},
		{From: ActivityNode("com.ex.Main"), To: MethodNode("com.ex.Main", "onXML"), Reason: ReasonXMLOnClick},
		{From: MethodNode("com.ex.Main", "onCreate"), To: MethodNode("com.ex.Main", "onGoNext"), Reason: ReasonListener},
		{From: MethodNode("com.ex.Main", "onGoNext"), To: ActivityNode("com.ex.Next"), Reason: ReasonIntent},
		{From: MethodNode("com.ex.Next", "onCreate"), To: FragmentNode("com.ex.HomeFrag"), Reason: ReasonTransaction},
		{From: MethodNode("com.ex.Next", "onCreate"), To: ReceiverNode("com.ex.Rcv"), Reason: ReasonBroadcast},
		{From: ReceiverNode("com.ex.Rcv"), To: MethodNode("com.ex.Rcv", "onReceive"), Reason: ReasonLifecycle},
		{From: ActivityNode("com.ex.Next"), To: FragmentNode("com.ex.RefFrag"), Reason: ReasonReflection},
	}
	for _, want := range wantEdges {
		if !hasEdge(g, want) {
			t.Errorf("missing edge %s", want)
		}
	}
	// No reflection edge for Main (no FragmentManager, no container).
	if hasEdge(g, Edge{From: ActivityNode("com.ex.Main"), To: FragmentNode("com.ex.RefFrag"), Reason: ReasonReflection}) {
		t.Error("unexpected reflection edge from Main")
	}
}

func hasEdge(g *Graph, want Edge) bool {
	for _, e := range g.EdgesFrom(want.From) {
		if e.To == want.To && e.Reason == want.Reason {
			return true
		}
	}
	return false
}

func TestLauncherReach(t *testing.T) {
	g := Build(testApp(t), nil)
	r := g.Reach(g.LauncherRoots())

	if !r.Activities["com.ex.Main"] || !r.Activities["com.ex.Next"] {
		t.Errorf("launcher reach activities = %v", r.ActivityList())
	}
	if r.Activities["com.ex.Orphan"] {
		t.Error("Orphan must not be launcher-reachable")
	}
	if !r.Fragments["com.ex.HomeFrag"] {
		t.Error("HomeFrag must be launcher-reachable via the transaction edge")
	}
	if !r.Fragments["com.ex.RefFrag"] {
		t.Error("RefFrag must be launcher-reachable via the reflection edge on Next")
	}
	if !r.Receivers["com.ex.Rcv"] {
		t.Error("Rcv must be reachable via the send-broadcast edge")
	}
	// APIs: Next's and Rcv's fire; Orphan's and Main.deadCode's do not.
	if owners := r.APIs["location/getProviders"]; len(owners) != 1 || owners[0] != "com.ex.Next" {
		t.Errorf("location/getProviders owners = %v", owners)
	}
	if _, ok := r.APIs["shell/exec"]; ok {
		t.Error("shell/exec sits in Orphan and must not be launcher-reachable")
	}
	if _, ok := r.APIs["contacts/query"]; ok {
		t.Error("contacts/query sits in dead code and must not be reachable")
	}
	if _, ok := r.APIs["network/getDeviceId"]; !ok {
		t.Error("receiver API must be reachable via broadcast delivery")
	}
}

func TestForcedReachIncludesOrphan(t *testing.T) {
	g := Build(testApp(t), nil)
	r := g.Reach(g.ForcedRoots([]string{"com.ex.Main", "com.ex.Next", "com.ex.Orphan"}))

	if !r.Activities["com.ex.Orphan"] {
		t.Error("forced roots must make Orphan reachable")
	}
	if _, ok := r.APIs["shell/exec"]; !ok {
		t.Error("Orphan's API must be reachable under forced roots")
	}
	if r.Invocations() < 3 {
		t.Errorf("Invocations = %d, want >= 3", r.Invocations())
	}
}

func TestReachIsMonotone(t *testing.T) {
	g := Build(testApp(t), nil)
	launcher := g.Reach(g.LauncherRoots())
	forced := g.Reach(g.ForcedRoots(g.Activities()))
	for a := range launcher.Activities {
		if !forced.Activities[a] {
			t.Errorf("forced reach lost activity %s", a)
		}
	}
	for f := range launcher.Fragments {
		if !forced.Fragments[f] {
			t.Errorf("forced reach lost fragment %s", f)
		}
	}
	for api := range launcher.APIs {
		if _, ok := forced.APIs[api]; !ok {
			t.Errorf("forced reach lost API %s", api)
		}
	}
}

// TestBuildDeterministic is the regression gate on edge ordering: building
// the same app repeatedly must yield identical Edges(), EdgesFrom() and
// encoded bytes. Build used to iterate component maps directly, which made
// inner-class and xml-onclick edge order (and hence path enumeration and
// cached artifacts) depend on map iteration order.
func TestBuildDeterministic(t *testing.T) {
	app := testApp(t)
	ref := Build(app, nil)
	refEdges := ref.Edges()
	refBytes, err := ref.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := 0; i < 50; i++ {
		g := Build(app, nil)
		edges := g.Edges()
		if len(edges) != len(refEdges) {
			t.Fatalf("build %d: %d edges, want %d", i, len(edges), len(refEdges))
		}
		for j := range edges {
			if edges[j] != refEdges[j] {
				t.Fatalf("build %d: edge %d = %s, want %s", i, j, edges[j], refEdges[j])
			}
		}
		for _, n := range ref.Nodes() {
			out, refOut := g.EdgesFrom(n), ref.EdgesFrom(n)
			if len(out) != len(refOut) {
				t.Fatalf("build %d: EdgesFrom(%s) = %d edges, want %d", i, n, len(out), len(refOut))
			}
			for j := range out {
				if out[j] != refOut[j] {
					t.Fatalf("build %d: EdgesFrom(%s)[%d] = %s, want %s", i, n, j, out[j], refOut[j])
				}
			}
		}
		b, err := g.Encode()
		if err != nil {
			t.Fatalf("build %d: Encode: %v", i, err)
		}
		if string(b) != string(refBytes) {
			t.Fatalf("build %d: encoded bytes differ from reference", i)
		}
	}
}

// TestEdgeRefs pins the new Ref operand: listener and xml-onclick edges name
// the actuating widget, reflection edges the host's container, and the codec
// round-trips it.
func TestEdgeRefs(t *testing.T) {
	app := testApp(t)
	g := Build(app, nil)
	want := map[string]string{
		"listener":    "@id/main_btn_next",
		"xml-onclick": "@id/main_btn_x",
		"reflection":  "@id/next_container",
	}
	got := make(map[string]string)
	for _, e := range g.Edges() {
		if e.Ref != "" {
			got[string(e.Reason)] = e.Ref
		}
	}
	for reason, ref := range want {
		if got[reason] != ref {
			t.Errorf("%s edge ref = %q, want %q", reason, got[reason], ref)
		}
	}
	b, err := g.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := Decode(b, app.Program)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	de, ge := dec.Edges(), g.Edges()
	if len(de) != len(ge) {
		t.Fatalf("decoded %d edges, want %d", len(de), len(ge))
	}
	for i := range ge {
		if de[i] != ge[i] {
			t.Errorf("decoded edge %d = %s, want %s", i, de[i], ge[i])
		}
	}
}
