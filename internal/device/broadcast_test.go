package device

import (
	"errors"
	"strings"
	"testing"

	"fragdroid/internal/corpus"
)

// broadcastSpec: a receiver that reads the SMS store on BOOT_COMPLETED and a
// second receiver that launches an activity on a custom event.
func broadcastSpec() *corpus.AppSpec {
	return &corpus.AppSpec{
		Package: "com.bcast",
		Activities: []corpus.ActivitySpec{
			{Name: "Main", Launcher: true},
			{Name: "Alert"},
		},
		Transition: []corpus.Transition{
			{From: "Main", To: "Alert", Kind: corpus.TransButton},
		},
		Receivers: []corpus.ReceiverSpec{
			{
				Name:      "BootReceiver",
				Actions:   []string{"android.intent.action.BOOT_COMPLETED"},
				Sensitive: []string{"messages/MmsProvider"},
			},
			{
				Name:           "AlertReceiver",
				Actions:        []string{"com.bcast.ALERT"},
				StartsActivity: "Alert",
			},
		},
	}
}

func TestBroadcastDelivery(t *testing.T) {
	app, err := corpus.BuildApp(broadcastSpec())
	if err != nil {
		t.Fatal(err)
	}
	var events []SensitiveEvent
	var log logRecorder
	d := New(app, Options{Monitor: func(e SensitiveEvent) { events = append(events, e) }, Hook: log.hook})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	// System event: the boot receiver reads the SMS store.
	if err := d.Broadcast("android.intent.action.BOOT_COMPLETED"); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if len(events) != 1 || events[0].API != "messages/MmsProvider" {
		t.Fatalf("events = %+v", events)
	}
	if events[0].InFragment || events[0].Activity != "" {
		t.Fatalf("receiver attribution wrong: %+v", events[0])
	}
	// App event: the alert receiver launches an activity.
	if err := d.Broadcast("com.bcast.ALERT"); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	if cur, _ := d.CurrentActivity(); cur != "com.bcast.Alert" {
		t.Fatalf("current = %q", cur)
	}
	// An action nobody subscribes to is a silent no-op.
	if err := d.Broadcast("com.bcast.NOBODY"); err != nil {
		t.Fatalf("unsubscribed broadcast: %v", err)
	}
	if !strings.Contains(log.String(), "0 receivers") {
		t.Error("unsubscribed broadcast not logged")
	}
}

func TestBroadcastActionsVocabulary(t *testing.T) {
	app, err := corpus.BuildApp(broadcastSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := app.Manifest.BroadcastActions()
	want := []string{"android.intent.action.BOOT_COMPLETED", "com.bcast.ALERT"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("BroadcastActions = %v", got)
	}
	if rs := app.Manifest.ReceiversFor("com.bcast.ALERT"); len(rs) != 1 || rs[0] != "com.bcast.AlertReceiver" {
		t.Fatalf("ReceiversFor = %v", rs)
	}
}

// A receiver that tries to touch the UI force-closes — receivers have no
// window.
func TestReceiverUIAccessCrashes(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A"},
		map[string]string{"a": `<LinearLayout id="@+id/a_root"/>`},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method`,
			"t.R": `
.class Lt/R;
.super Landroid/content/BroadcastReceiver;
.method onReceive()V
    show-dialog "no window here"
.end method`,
		})
	// Register the receiver in the manifest by hand.
	app.Manifest.Application.Receivers = append(app.Manifest.Application.Receivers,
		receiverDecl("t.R", "t.EVENT"))
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Broadcast("t.EVENT"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Broadcast err = %v", err)
	}
	if !strings.Contains(d.CrashReason(), "IllegalStateException") {
		t.Fatalf("reason = %q", d.CrashReason())
	}
}

// App code can send broadcasts itself: a button handler fires send-broadcast
// and the subscribed receiver launches the alert activity.
func TestAppInitiatedBroadcast(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A", "t.Alert"},
		map[string]string{
			"a": `<LinearLayout id="@+id/a_root"><Button id="@+id/fire" onClick="onFire"/></LinearLayout>`,
		},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method
.method onFire()V
    send-broadcast "t.ALARM"
.end method`,
			"t.Alert": `
.class Lt/Alert;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method`,
			"t.R": `
.class Lt/R;
.super Landroid/content/BroadcastReceiver;
.method onReceive()V
    new-intent Lt/R; Lt/Alert;
    start-activity
.end method`,
		})
	app.Manifest.Application.Receivers = append(app.Manifest.Application.Receivers,
		receiverDecl("t.R", "t.ALARM"))
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	if err := d.Click("@id/fire"); err != nil {
		t.Fatal(err)
	}
	if cur, _ := d.CurrentActivity(); cur != "t.Alert" {
		t.Fatalf("current = %q", cur)
	}
}

func TestBroadcastWhileCrashed(t *testing.T) {
	app, err := corpus.BuildApp(broadcastSpec())
	if err != nil {
		t.Fatal(err)
	}
	d := New(app, Options{})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	// Force a crash, then broadcasts must be rejected.
	d.crash("test crash")
	if err := d.Broadcast("com.bcast.ALERT"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v", err)
	}
}
