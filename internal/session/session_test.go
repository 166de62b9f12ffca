package session_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"fragdroid/internal/baseline"
	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
)

// TestObserverIsPassive pins that attaching an Observer changes nothing
// about a run but its text, on the demo and the 15 Table I apps: an untraced
// run keeps no transcript, a traced run's transcript is the Msg lines of the
// events its Observer received, and the counters, curve, visits, crash
// reports, collector usages and evolved model are identical either way. The
// counters catch an engine that skips an event which counts (a successful
// input fill, a failed reflection) when untraced instead of only its Msg.
func TestObserverIsPassive(t *testing.T) {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	for _, spec := range specs {
		t.Run(spec.Package, func(t *testing.T) {
			app, err := corpus.BuildApp(spec)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := explorer.Explore(app, explorer.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			cfg := explorer.DefaultConfig()
			buf := &session.TraceBuffer{}
			cfg.Observer = buf
			traced, err := explorer.Explore(app, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Transcript != nil {
				t.Errorf("an untraced run kept %d transcript lines", len(plain.Transcript))
			}
			if len(traced.Transcript) == 0 || !reflect.DeepEqual(traced.Transcript, session.RenderTranscript(buf.Events())) {
				t.Error("the traced transcript is not the Msg lines of the observed events")
			}
			if plain.Stats != traced.Stats {
				t.Errorf("stats differ with an observer attached: %+v vs %+v", plain.Stats, traced.Stats)
			}
			if !reflect.DeepEqual(plain.Curve, traced.Curve) {
				t.Error("coverage curve differs with an observer attached")
			}
			if !reflect.DeepEqual(plain.Visits, traced.Visits) {
				t.Error("visits differ with an observer attached")
			}
			if !reflect.DeepEqual(plain.CrashReports, traced.CrashReports) {
				t.Error("crash reports differ with an observer attached")
			}
			if !reflect.DeepEqual(plain.Collector.Usages(), traced.Collector.Usages()) {
				t.Error("collector usages differ with an observer attached")
			}
			if !reflect.DeepEqual(plain.Model.Edges(), traced.Model.Edges()) {
				t.Error("model edges differ with an observer attached")
			}
		})
	}
}

// TestTranscriptEqualsRenderedEvents pins the tracing contract: the legacy
// transcript is exactly the Msg lines of the structured event stream.
func TestTranscriptEqualsRenderedEvents(t *testing.T) {
	app, err := corpus.BuildApp(parityApp(t, "com.inditex.zara"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := explorer.DefaultConfig()
	buf := &session.TraceBuffer{}
	cfg.Observer = buf
	res, err := explorer.Explore(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := session.RenderTranscript(buf.Events())
	if !reflect.DeepEqual(got, res.Transcript) {
		t.Errorf("RenderTranscript(events) != Transcript: %d vs %d lines", len(got), len(res.Transcript))
	}
}

// TestTraceJSON pins that the buffer renders a valid JSON array with
// monotonically increasing per-session sequence numbers, and that typed
// events appear.
func TestTraceJSON(t *testing.T) {
	app, err := corpus.BuildApp(parityApp(t, "com.adobe.reader"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := explorer.DefaultConfig()
	buf := &session.TraceBuffer{}
	cfg.Observer = buf
	if _, err := explorer.Explore(app, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := buf.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var events []session.Event
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events in trace")
	}
	kinds := make(map[session.Kind]int)
	last := 0
	for _, ev := range events {
		if ev.Seq <= last {
			t.Fatalf("sequence numbers not increasing: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		if ev.App != "com.adobe.reader" {
			t.Fatalf("event missing app stamp: %+v", ev)
		}
		kinds[ev.Kind]++
	}
	for _, want := range []session.Kind{
		session.KindScriptRun, session.KindOp, session.KindVisit,
		session.KindCrash, session.KindDevice, session.KindNote,
	} {
		if kinds[want] == 0 {
			t.Errorf("no %s events in trace", want)
		}
	}
	empty := &session.TraceBuffer{}
	data, err = empty.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[]" {
		t.Errorf("empty buffer JSON = %q, want []", data)
	}
}

// TestSessionBudgetAndCrashTriage unit-tests the session runtime directly:
// budget exhaustion, crash dedup, and the injected-work escape hatches.
func TestSessionBudgetAndCrashTriage(t *testing.T) {
	app, err := corpus.BuildApp(parityApp(t, "com.adobe.reader"))
	if err != nil {
		t.Fatal(err)
	}
	s := session.New(app, session.Options{Budget: 2, AutoDismiss: true, TriageCrashes: true})
	launch := robotium.Script{Name: "launch", Ops: []robotium.Op{robotium.LaunchMain()}}
	if _, _, ok := s.RunScript(launch, session.PurposeLaunch); !ok {
		t.Fatal("first run refused")
	}
	if _, _, ok := s.RunScript(launch, session.PurposeReplay); !ok {
		t.Fatal("second run refused")
	}
	if !s.Exhausted() {
		t.Fatal("budget of 2 not exhausted after 2 runs")
	}
	if _, _, ok := s.RunScript(launch, session.PurposeLaunch); ok {
		t.Fatal("run allowed past budget")
	}
	st := s.Stats()
	if st.TestCases != 2 || st.Replays != 1 {
		t.Errorf("stats = %+v, want 2 test cases / 1 replay", st)
	}
	if st.Steps == 0 {
		t.Error("no steps charged")
	}

	s.MarkCrash("NullPointerException", launch)
	s.MarkCrash("NullPointerException", launch)
	s.MarkCrash("IllegalStateException", launch)
	s.MarkCrash("", launch)
	if got := s.Stats().Crashes; got != 4 {
		t.Errorf("crashes = %d, want 4", got)
	}
	if got := len(s.CrashReports()); got != 2 {
		t.Errorf("crash reports = %d, want 2 (deduped, empty reason dropped)", got)
	}

	s.AddTestCases(10)
	s.AddSteps(100)
	if st := s.Stats(); st.TestCases != 12 || st.Steps < 100 {
		t.Errorf("injected work not charged: %+v", st)
	}
}

// TestBaselineObserverWiring pins that the baselines emit trace events too.
func TestBaselineObserverWiring(t *testing.T) {
	app, err := corpus.BuildApp(parityApp(t, "com.adobe.reader"))
	if err != nil {
		t.Fatal(err)
	}
	buf := &session.TraceBuffer{}
	acfg := baseline.DefaultActivityConfig()
	acfg.Observer = buf
	if _, err := baseline.ExploreActivities(app, acfg); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("activity baseline emitted no events")
	}
	mbuf := &session.TraceBuffer{}
	if _, err := baseline.Monkey(app, baseline.MonkeyConfig{Seed: 7, Events: 200, Observer: mbuf}); err != nil {
		t.Fatal(err)
	}
	if mbuf.Len() == 0 {
		t.Fatal("monkey emitted no events")
	}
}
