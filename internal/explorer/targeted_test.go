package explorer

import (
	"strings"
	"testing"

	"fragdroid/internal/aftm"
	"fragdroid/internal/corpus"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

func TestPlanForAPI(t *testing.T) {
	ex, err := statics.Extract(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	// media/Camera.startPreview lives in the Promo fragment (drawer-hidden).
	plans := PlanForAPI(ex, "media/Camera.startPreview")
	if len(plans) != 1 {
		t.Fatalf("plans = %+v", plans)
	}
	p := plans[0]
	if p.Site != aftm.FragmentNode(pkg+"Promo") {
		t.Fatalf("site = %v", p.Site)
	}
	if len(p.Path) == 0 {
		t.Fatal("no static path to Promo")
	}
	if p.Path[len(p.Path)-1].To != p.Site {
		t.Fatalf("path ends at %v", p.Path[len(p.Path)-1].To)
	}
	// An API nobody calls has no plans.
	if got := PlanForAPI(ex, "browser/Downloads"); got != nil {
		t.Fatalf("phantom plans: %v", got)
	}
}

func TestExploreTargetTriggersAndHaltsEarly(t *testing.T) {
	ex, err := statics.Extract(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	full, err := ExploreExtracted(ex, fullConfig())
	if err != nil {
		t.Fatal(err)
	}

	ex2, err := statics.Extract(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ExploreTarget(ex2, fullConfig(), "media/Camera.startPreview")
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Triggered {
		t.Fatal("target API not triggered")
	}
	if len(tr.Plans) != 1 {
		t.Fatalf("plans = %+v", tr.Plans)
	}
	// Early halt: the targeted run spends no more (and normally fewer) test
	// cases than full exploration.
	if tr.Result.TestCases > full.TestCases {
		t.Errorf("targeted run used %d cases, full run %d", tr.Result.TestCases, full.TestCases)
	}
}

// TestExploreTargetStopsAtHalt pins that a targeted run does nothing after
// its API fires: com.inditex.zara calls internet/connect in the test case
// that launches it, and no interface may be explored after that, with the
// run's last note naming the halt.
func TestExploreTargetStopsAtHalt(t *testing.T) {
	const api = "internet/connect"
	var spec *corpus.AppSpec
	for _, row := range corpus.PaperRows() {
		if row.Package == "com.inditex.zara" {
			spec = corpus.PaperSpec(row)
		}
	}
	app, err := corpus.BuildApp(spec)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := statics.Extract(app)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	buf := &session.TraceBuffer{}
	cfg.Observer = buf
	tr, err := ExploreTarget(ex, cfg, api)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Triggered {
		t.Fatal("target API not triggered")
	}
	fired, last := false, ""
	for _, ev := range buf.Events() {
		fired = fired || ev.Kind == session.KindSensitive && ev.API == api
		if ev.Kind != session.KindNote {
			continue
		}
		if fired && strings.HasPrefix(ev.Msg, "explore interface") {
			t.Errorf("note after the API fired: %s", ev.Msg)
		}
		last = ev.Msg
	}
	if !strings.HasPrefix(last, "halted after round") || !strings.Contains(last, api) {
		t.Errorf("last note %q does not name the halt on %s", last, api)
	}
}

// TestExploreStopNoteNamesTheCause pins the run's last note to the reason it
// stopped: at a budget of 3 test cases the demo still has interfaces queued,
// so the note must name the spent budget, while under the default budget,
// which the demo never reaches, the queue drains after 33 test cases.
func TestExploreStopNoteNamesTheCause(t *testing.T) {
	app := demoApp(t)
	for _, tc := range []struct {
		budget int
		want   string
	}{
		{3, "stopped after round 1: test-case budget spent (test cases: 3)"},
		{0, "terminated after round 3: queue empty and AFTM stable (test cases: 33)"},
	} {
		cfg := DefaultConfig()
		cfg.MaxTestCases = tc.budget
		buf := &session.TraceBuffer{}
		cfg.Observer = buf
		if _, err := Explore(app, cfg); err != nil {
			t.Fatal(err)
		}
		last := ""
		for _, ev := range buf.Events() {
			if ev.Kind == session.KindNote {
				last = ev.Msg
			}
		}
		if last != tc.want {
			t.Errorf("budget %d: last note %q, want %q", tc.budget, last, tc.want)
		}
	}
}

func TestExploreTargetUnreachableAPI(t *testing.T) {
	ex, err := statics.Extract(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	// VIP's API exists statically but is dynamically unreachable
	// (requires-args reflection failure).
	tr, err := ExploreTarget(ex, fullConfig(), "phone/Configuration.MCC")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Triggered {
		t.Fatal("unreachable API reported triggered")
	}
	if len(tr.Plans) != 1 || tr.Plans[0].Site != aftm.FragmentNode(pkg+"VIP") {
		t.Fatalf("plans = %+v", tr.Plans)
	}
}

func TestExploreTargetValidation(t *testing.T) {
	ex, err := statics.Extract(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExploreTarget(ex, fullConfig(), ""); err == nil {
		t.Fatal("empty API accepted")
	}
}

func TestSensitiveSitesIndex(t *testing.T) {
	ex, err := statics.Extract(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"internet/connect":                pkg + "Main",
		"internet/inet":                   pkg + "Home",
		"system/getInstalledApplications": pkg + "Lab",
		"phone/getDeviceId":               pkg + "Secret",
	}
	for api, owner := range cases {
		sites := ex.SensitiveSites[api]
		if len(sites) != 1 || sites[0] != owner {
			t.Errorf("SensitiveSites[%s] = %v, want [%s]", api, sites, owner)
		}
	}
}
