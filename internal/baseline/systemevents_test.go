package baseline

import (
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/session"
)

// eventSpec: an activity reachable ONLY through a broadcast receiver — the
// Dynodroid-style system-event channel.
func eventSpec() *corpus.AppSpec {
	return &corpus.AppSpec{
		Package: "com.sysev",
		Activities: []corpus.ActivitySpec{
			{Name: "Main", Launcher: true},
			{Name: "Detail"},
			{Name: "Panic", Sensitive: []string{"location/getAllProviders"}},
		},
		Transition: []corpus.Transition{
			{From: "Main", To: "Detail", Kind: corpus.TransButton},
		},
		Receivers: []corpus.ReceiverSpec{{
			Name:           "PanicReceiver",
			Actions:        []string{"com.sysev.PANIC"},
			StartsActivity: "Panic",
		}},
	}
}

func TestMonkeySystemEventsReachReceiverActivities(t *testing.T) {
	app, err := corpus.BuildApp(eventSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Without system events, Panic is reachable only via forced start —
	// which Monkey doesn't do — so clicks never reach it.
	plain, err := Monkey(app, MonkeyConfig{Seed: 11, Events: 800})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plain.VisitedActivities {
		if a == "com.sysev.Panic" {
			t.Fatal("plain monkey reached the receiver-only activity")
		}
	}
	// With system events the PANIC broadcast fires eventually and the
	// receiver launches the activity.
	sys, err := Monkey(app, MonkeyConfig{Seed: 11, Events: 800, SystemEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range sys.VisitedActivities {
		if a == "com.sysev.Panic" {
			found = true
		}
	}
	if !found {
		t.Fatalf("system-event monkey missed the receiver activity: %v", sys.VisitedActivities)
	}
	// And its sensitive API is observed only in the system-event run.
	apis := func(r *session.Outcome) map[string]bool {
		m := make(map[string]bool)
		for _, u := range r.Collector.Usages() {
			m[u.API] = true
		}
		return m
	}
	if apis(plain)["location/getAllProviders"] {
		t.Error("plain run observed the receiver-gated API")
	}
	if !apis(sys)["location/getAllProviders"] {
		t.Error("system-event run missed the receiver-gated API")
	}
}
