package paths

import (
	"reflect"
	"testing"

	"fragdroid/internal/callgraph"
	"fragdroid/internal/corpus"
	"fragdroid/internal/robotium"
	"fragdroid/internal/statics"
)

func demoExtraction(t *testing.T) *statics.Extraction {
	t.Helper()
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := statics.Extract(app)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestPlanAllCoversCeiling pins the partition property the gap classification
// builds on: PlanAll emits exactly one plan per static (API, component)
// invocation relation.
func TestPlanAllCoversCeiling(t *testing.T) {
	ex := demoExtraction(t)
	plans := New(ex, DefaultConfig()).PlanAll()
	if len(plans) != ex.StaticReach().Invocations() {
		t.Fatalf("PlanAll = %d plans, StaticReach.Invocations = %d",
			len(plans), ex.StaticReach().Invocations())
	}
	seen := make(map[Target]bool)
	for _, sp := range plans {
		if seen[sp.Target] {
			t.Errorf("duplicate plan for %+v", sp.Target)
		}
		seen[sp.Target] = true
		if !sp.Liftable() && len(sp.Blocked) == 0 {
			t.Errorf("%+v: neither routes nor blocked records", sp.Target)
		}
	}
}

// TestEnumerateDeterministic rebuilds the extraction and replans: targets,
// route scripts and costs must be identical — the seed-determinism guarantee
// the directed strategy inherits.
func TestEnumerateDeterministic(t *testing.T) {
	a := New(demoExtraction(t), DefaultConfig()).PlanAll()
	b := New(demoExtraction(t), DefaultConfig()).PlanAll()
	if len(a) != len(b) {
		t.Fatalf("plan counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Target != b[i].Target {
			t.Fatalf("plan %d targets %+v vs %+v", i, a[i].Target, b[i].Target)
		}
		if len(a[i].Routes) != len(b[i].Routes) {
			t.Fatalf("%+v: %d vs %d routes", a[i].Target, len(a[i].Routes), len(b[i].Routes))
		}
		for j := range a[i].Routes {
			ra, rb := a[i].Routes[j], b[i].Routes[j]
			if ra.Path.Cost != rb.Path.Cost || !reflect.DeepEqual(ra.Script, rb.Script) {
				t.Errorf("%+v route %d differs:\n%+v\nvs\n%+v", a[i].Target, j, ra.Script, rb.Script)
			}
		}
	}
}

// TestRoutesCheapestFirst checks route ordering and root lowering: every
// script opens with the launch (launcher root) or a forced start, and costs
// never decrease.
func TestRoutesCheapestFirst(t *testing.T) {
	ex := demoExtraction(t)
	for _, sp := range New(ex, DefaultConfig()).PlanAll() {
		last := -1
		for _, r := range sp.Routes {
			if len(r.Script.Ops) == 0 {
				t.Fatalf("%+v: empty script", sp.Target)
			}
			switch first := r.Script.Ops[0]; first.Kind {
			case robotium.OpLaunchMain:
				if r.Path.Forced {
					t.Errorf("%+v: forced path lowered to LaunchMain", sp.Target)
				}
			case robotium.OpForceStart:
				if !r.Path.Forced {
					t.Errorf("%+v: launcher path lowered to ForceStart", sp.Target)
				}
			default:
				t.Errorf("%+v: script opens with op kind %d", sp.Target, int(first.Kind))
			}
			if r.Path.Cost < last {
				t.Errorf("%+v: route costs out of order", sp.Target)
			}
			last = r.Path.Cost
		}
	}
}

// TestInputGateFill pins the input resolution on lowered routes: the analyst
// value when provided, the default filler otherwise.
func TestInputGateFill(t *testing.T) {
	ex := demoExtraction(t)
	gateRef := corpus.InputRef("Login", "Account")
	find := func(p *Planner) string {
		sp := p.PlanSite("location/requestLocationUpdates", "com.demo.app.Account")
		for _, r := range sp.Routes {
			if r.Path.Forced {
				continue
			}
			for _, op := range r.Script.Ops {
				if op.Kind == robotium.OpEnterText && op.Ref == gateRef {
					return op.Value
				}
			}
		}
		return ""
	}
	withInput := New(ex, Config{Inputs: map[string]string{gateRef: "alice"}, DefaultInput: "test123"})
	if v := find(withInput); v != "alice" {
		t.Errorf("analyst input fill = %q, want alice", v)
	}
	without := New(ex, DefaultConfig())
	if v := find(without); v != "test123" {
		t.Errorf("default input fill = %q, want test123", v)
	}
}

// TestUnliftableCauses drives Lower over the blocking edge shapes directly
// and checks the reported causes and blocking edges.
func TestUnliftableCauses(t *testing.T) {
	ex := demoExtraction(t)
	p := New(ex, DefaultConfig())
	main := callgraph.ActivityNode("com.demo.app.Main")
	tgt := Target{Class: "com.demo.app.Main"}

	cases := []struct {
		name string
		edge callgraph.Edge
		want Cause
	}{
		{"listener with no bound widget",
			callgraph.Edge{From: main, To: callgraph.MethodNode("com.demo.app.Main", "onGo"), Reason: callgraph.ReasonListener},
			CauseNoBoundWidget},
		{"inner-class over-approximation",
			callgraph.Edge{From: main, To: callgraph.MethodNode("com.demo.app.Main$1", "run"), Reason: callgraph.ReasonInner},
			CauseNoBoundWidget},
		{"receiver-context inner edge",
			callgraph.Edge{From: callgraph.ReceiverNode("com.demo.app.Rcv"), To: callgraph.MethodNode("com.demo.app.Rcv$1", "run"), Reason: callgraph.ReasonInner},
			CauseReceiverOnly},
		{"reflection into requires-args fragment",
			callgraph.Edge{From: main, To: callgraph.FragmentNode("com.demo.app.VIP"), Reason: callgraph.ReasonReflection, Ref: "@id/container"},
			CauseReflectionGated},
	}
	for _, tc := range cases {
		path := Path{Root: tc.edge.From, Edges: []callgraph.Edge{tc.edge}}
		_, blocked := p.Lower(tgt, path, "t")
		if blocked == nil {
			t.Errorf("%s: lowered, want blocked", tc.name)
			continue
		}
		if blocked.Cause != tc.want {
			t.Errorf("%s: cause = %s, want %s", tc.name, blocked.Cause, tc.want)
		}
		if blocked.Edge != tc.edge {
			t.Errorf("%s: blocking edge = %s, want %s", tc.name, blocked.Edge, tc.edge)
		}
	}
}

// TestSearchBoundTarget: a target no bounded search can reach comes back as
// one search-bounds record, not an empty plan.
func TestSearchBoundTarget(t *testing.T) {
	ex := demoExtraction(t)
	p := New(ex, DefaultConfig())
	sp := p.PlanComponent("com.demo.app.NoSuch")
	if sp.Liftable() {
		t.Fatal("unknown component lifted a route")
	}
	b, ok := sp.Blocking()
	if !ok || b.Cause != CauseSearchBound {
		t.Fatalf("blocking = %+v ok=%v, want search-bounds", b, ok)
	}
}

// TestLauncherOnlyRoots: LauncherOnly must not emit forced-start routes.
func TestLauncherOnlyRoots(t *testing.T) {
	ex := demoExtraction(t)
	p := New(ex, Config{LauncherOnly: true, DefaultInput: "test123"})
	for _, sp := range p.PlanAll() {
		for _, r := range sp.Routes {
			if r.Path.Forced {
				t.Fatalf("%+v: forced route under LauncherOnly", sp.Target)
			}
		}
	}
}
