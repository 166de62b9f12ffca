package device

import (
	"strings"
	"testing"
)

func TestActivityLifecycleOrder(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A"},
		map[string]string{"a": `<LinearLayout id="@+id/a_root"/>`},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
    log "create"
.end method
.method onStart()V
    log "start"
.end method
.method onResume()V
    log "resume"
    invoke-sensitive "location/getAllProviders"
.end method`,
		})
	var apis []string
	var log logRecorder
	d := New(app, Options{Monitor: func(e SensitiveEvent) { apis = append(apis, e.API) }, Hook: log.hook})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	joined := log.String()
	ci := strings.Index(joined, "app log: create")
	si := strings.Index(joined, "app log: start")
	ri := strings.Index(joined, "app log: resume")
	if ci < 0 || si < 0 || ri < 0 || !(ci < si && si < ri) {
		t.Fatalf("lifecycle order wrong:\n%s", joined)
	}
	// Sensitive calls in onResume are monitored like any other.
	if len(apis) != 1 || apis[0] != "location/getAllProviders" {
		t.Fatalf("apis = %v", apis)
	}
}

func TestFragmentLifecycle(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A"},
		map[string]string{
			"a": `<LinearLayout id="@+id/a_root"><FrameLayout id="@+id/c"/></LinearLayout>`,
			"f": `<LinearLayout id="@+id/f_root"/>`,
		},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
    get-fragment-manager
    begin-transaction
    txn-add @id/c Lt/F;
    txn-commit
.end method`,
			"t.F": `
.class Lt/F;
.super Landroid/app/Fragment;
.method onCreateView()V
    set-content-view @layout/f
.end method
.method onResume()V
    log "fragment resumed"
.end method`,
		})
	var log logRecorder
	d := New(app, Options{Hook: log.hook})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "fragment resumed") {
		t.Fatal("fragment onResume did not run")
	}
}

// An activity that immediately redirects from onCreate must not run the rest
// of its lifecycle on a backgrounded instance.
func TestLifecycleStopsAfterRedirect(t *testing.T) {
	app := makeApp(t,
		[]string{"t.A", "t.B"},
		map[string]string{"a": `<LinearLayout id="@+id/a_root"/>`},
		map[string]string{
			"t.A": `
.class Lt/A;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
    new-intent Lt/A; Lt/B;
    start-activity
.end method
.method onResume()V
    log "A resumed"
.end method`,
			"t.B": `
.class Lt/B;
.super Landroid/app/Activity;
.method onCreate()V
    set-content-view @layout/a
.end method`,
		})
	var log logRecorder
	d := New(app, Options{Hook: log.hook})
	if err := d.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	if cur, _ := d.CurrentActivity(); cur != "t.B" {
		t.Fatalf("current = %q", cur)
	}
	if strings.Contains(log.String(), "A resumed") {
		t.Fatal("backgrounded activity ran onResume")
	}
}
