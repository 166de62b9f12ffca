package lint_test

import (
	"errors"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/layout"
	"fragdroid/internal/lint"
	"fragdroid/internal/manifest"
	"fragdroid/internal/smali"
	"fragdroid/internal/statics"
)

func ins(op smali.Op, args ...string) smali.Instr {
	return smali.Instr{Op: op, Args: args}
}

func method(name string, body ...smali.Instr) *smali.Method {
	return &smali.Method{Name: name, Access: []string{"public"}, Body: body}
}

// lintApp assembles the app, extracts and runs every analyzer.
func lintApp(t *testing.T, man *manifest.Manifest, layouts []*layout.Layout, classes []*smali.Class) []lint.Diagnostic {
	t.Helper()
	app, err := apk.Assemble(man, layouts, classes)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	ex, err := statics.Extract(app)
	if err != nil {
		t.Fatalf("Extract: %v", err)
	}
	return lint.Run(ex)
}

// byCode returns the diagnostics carrying the analyzer code.
func byCode(ds []lint.Diagnostic, code string) []lint.Diagnostic {
	var out []lint.Diagnostic
	for _, d := range ds {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func mustBuild(t *testing.T, b *manifest.Builder) *manifest.Manifest {
	t.Helper()
	man, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func TestSeverityRoundTrip(t *testing.T) {
	for _, s := range []lint.Severity{lint.SeverityInfo, lint.SeverityWarning, lint.SeverityError} {
		got, err := lint.ParseSeverity(s.String())
		if err != nil || got != s {
			t.Errorf("ParseSeverity(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := lint.ParseSeverity("fatal"); err == nil {
		t.Error("ParseSeverity accepted unknown name")
	}
	if lint.MaxSeverity(nil) != 0 {
		t.Error("MaxSeverity(nil) != 0")
	}
	ds := []lint.Diagnostic{{Severity: lint.SeverityWarning}, {Severity: lint.SeverityError}}
	if lint.MaxSeverity(ds) != lint.SeverityError {
		t.Error("MaxSeverity missed the error")
	}
	if got := lint.Filter(ds, lint.SeverityError); len(got) != 1 {
		t.Errorf("Filter kept %d diagnostics, want 1", len(got))
	}
}

// FL001 (activities): B and C transition into each other but nothing on the
// launcher path ever starts them — only forced empty-Intent starts visit them.
func TestFL001UnreachableActivity(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").
		Launcher("com.ex.Main").Activity("com.ex.B").Activity("com.ex.C"))
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpLog, "idle")),
		}},
		{Name: "com.ex.B", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpNewIntent, "com.ex.B", "com.ex.C"),
				ins(smali.OpStartActivity)),
		}},
		{Name: "com.ex.C", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpLog, "c")),
		}},
	}
	got := byCode(lintApp(t, man, nil, classes), "FL001")
	classesSeen := map[string]bool{}
	for _, d := range got {
		if d.Severity != lint.SeverityWarning {
			t.Errorf("FL001 severity = %s, want warning", d.Severity)
		}
		classesSeen[d.Class] = true
	}
	if !classesSeen["com.ex.B"] || !classesSeen["com.ex.C"] {
		t.Errorf("FL001 classes = %v, want com.ex.B and com.ex.C", classesSeen)
	}
}

// FL001 (fragments): LostFrag is transaction-committed only inside a dead
// method of a container-less activity, so it is effective but outside the
// forced-start ceiling.
func TestFL001UnreachableFragment(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").
		Launcher("com.ex.Main").Activity("com.ex.B"))
	layouts := []*layout.Layout{
		layout.Root(layout.TypeLinearLayout).ID("@id/main_root").
			Child(layout.Root(layout.TypeFrameLayout).ID("@id/c")).
			BuildLayout("activity_main"),
		layout.Root(layout.TypeLinearLayout).ID("@id/lost_root").BuildLayout("fragment_lost"),
	}
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpSetContentView, "@layout/activity_main"),
				ins(smali.OpNewIntent, "com.ex.Main", "com.ex.B"),
				ins(smali.OpStartActivity)),
		}},
		{Name: "com.ex.B", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpLog, "b")),
			method("deadSwitch",
				ins(smali.OpGetFragmentManager),
				ins(smali.OpBeginTransaction),
				ins(smali.OpTxnAdd, "@id/c", "com.ex.LostFrag"),
				ins(smali.OpTxnCommit)),
		}},
		{Name: "com.ex.LostFrag", Super: smali.ClassFragment, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreateView", ins(smali.OpSetContentView, "@layout/fragment_lost")),
		}},
	}
	got := byCode(lintApp(t, man, layouts, classes), "FL001")
	found := false
	for _, d := range got {
		if d.Class == "com.ex.LostFrag" {
			found = true
		}
	}
	if !found {
		t.Errorf("FL001 did not flag com.ex.LostFrag; got %v", got)
	}
}

// FL002: begin-transaction without commit, in both the fall-off-the-end and
// the double-begin form.
func TestFL002UncommittedTransaction(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").Launcher("com.ex.Main"))
	layouts := []*layout.Layout{
		layout.Root(layout.TypeLinearLayout).ID("@id/main_root").
			Child(layout.Root(layout.TypeFrameLayout).ID("@id/c")).
			BuildLayout("activity_main"),
		layout.Root(layout.TypeLinearLayout).ID("@id/home_root").BuildLayout("fragment_home"),
	}
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpSetContentView, "@layout/activity_main"),
				ins(smali.OpGetFragmentManager),
				ins(smali.OpBeginTransaction),
				ins(smali.OpTxnAdd, "@id/c", "com.ex.HomeFrag")),
			method("onStart",
				ins(smali.OpGetFragmentManager),
				ins(smali.OpBeginTransaction),
				ins(smali.OpBeginTransaction),
				ins(smali.OpTxnCommit)),
		}},
		{Name: "com.ex.HomeFrag", Super: smali.ClassFragment, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreateView", ins(smali.OpSetContentView, "@layout/fragment_home")),
		}},
	}
	got := byCode(lintApp(t, man, layouts, classes), "FL002")
	if len(got) != 2 {
		t.Fatalf("FL002 fired %d times, want 2 (fall-off-end and double-begin): %v", len(got), got)
	}
	for _, d := range got {
		if d.Severity != lint.SeverityError {
			t.Errorf("FL002 severity = %s, want error", d.Severity)
		}
	}
}

// FL003: transaction operations with no open transaction.
func TestFL003OperationOutsideTransaction(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").Launcher("com.ex.Main"))
	layouts := []*layout.Layout{
		layout.Root(layout.TypeLinearLayout).ID("@id/main_root").
			Child(layout.Root(layout.TypeFrameLayout).ID("@id/c")).
			BuildLayout("activity_main"),
		layout.Root(layout.TypeLinearLayout).ID("@id/home_root").BuildLayout("fragment_home"),
	}
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpSetContentView, "@layout/activity_main"),
				ins(smali.OpGetFragmentManager),
				ins(smali.OpTxnAdd, "@id/c", "com.ex.HomeFrag"),
				ins(smali.OpTxnCommit)),
		}},
		{Name: "com.ex.HomeFrag", Super: smali.ClassFragment, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreateView", ins(smali.OpSetContentView, "@layout/fragment_home")),
		}},
	}
	got := byCode(lintApp(t, man, layouts, classes), "FL003")
	if len(got) != 2 {
		t.Fatalf("FL003 fired %d times, want 2 (txn-add and txn-commit): %v", len(got), got)
	}
}

// FL004: a registered listener handler the component cannot resolve, and an
// XML onClick bound to a method the inflating activity does not define.
func TestFL004MissingClickHandler(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").Launcher("com.ex.Main"))
	layouts := []*layout.Layout{
		layout.Root(layout.TypeLinearLayout).ID("@id/main_root").
			Child(layout.Root(layout.TypeButton).ID("@id/ok").Text("ok")).
			Child(layout.Root(layout.TypeButton).ID("@id/ghostly").Text("x").OnClick("ghost")).
			BuildLayout("activity_main"),
	}
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpSetContentView, "@layout/activity_main"),
				ins(smali.OpSetClickListener, "@id/ok", "onMissing")),
		}},
	}
	got := byCode(lintApp(t, man, layouts, classes), "FL004")
	if len(got) != 2 {
		t.Fatalf("FL004 fired %d times, want 2 (listener and XML onClick): %v", len(got), got)
	}
	for _, d := range got {
		if d.Severity != lint.SeverityError {
			t.Errorf("FL004 severity = %s, want error", d.Severity)
		}
	}
}

// FL005: the listener targets a widget that only exists in another
// activity's layout — resolvable app-wide, but the owner never shows it.
func TestFL005ListenerOnForeignWidget(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").
		Launcher("com.ex.Main").Activity("com.ex.Second"))
	layouts := []*layout.Layout{
		layout.Root(layout.TypeLinearLayout).ID("@id/main_root").BuildLayout("activity_main"),
		layout.Root(layout.TypeLinearLayout).ID("@id/second_root").
			Child(layout.Root(layout.TypeButton).ID("@id/other").Text("other")).
			BuildLayout("activity_second"),
	}
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpSetContentView, "@layout/activity_main"),
				ins(smali.OpSetClickListener, "@id/other", "onTap"),
				ins(smali.OpNewIntent, "com.ex.Main", "com.ex.Second"),
				ins(smali.OpStartActivity)),
			method("onTap", ins(smali.OpLog, "tap")),
		}},
		{Name: "com.ex.Second", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpSetContentView, "@layout/activity_second")),
		}},
	}
	got := byCode(lintApp(t, man, layouts, classes), "FL005")
	if len(got) != 1 || got[0].Class != "com.ex.Main" || got[0].Severity != lint.SeverityWarning {
		t.Fatalf("FL005 = %v, want one warning on com.ex.Main", got)
	}
}

// FL006: explicit intent to a class the manifest never declares.
func TestFL006UndeclaredIntentTarget(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").Launcher("com.ex.Main"))
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpNewIntent, "com.ex.Main", "com.ex.Ghost"),
				ins(smali.OpStartActivity)),
		}},
		{Name: "com.ex.Ghost", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpLog, "ghost")),
		}},
	}
	got := byCode(lintApp(t, man, nil, classes), "FL006")
	if len(got) != 1 || got[0].Method != "onCreate" || got[0].Severity != lint.SeverityError {
		t.Fatalf("FL006 = %v, want one error in com.ex.Main.onCreate", got)
	}
}

// FL007: the transaction container lives in another activity's layout.
func TestFL007ForeignContainer(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").
		Launcher("com.ex.Main").Activity("com.ex.Second"))
	layouts := []*layout.Layout{
		layout.Root(layout.TypeLinearLayout).ID("@id/main_root").BuildLayout("activity_main"),
		layout.Root(layout.TypeLinearLayout).ID("@id/second_root").
			Child(layout.Root(layout.TypeFrameLayout).ID("@id/far_container")).
			BuildLayout("activity_second"),
		layout.Root(layout.TypeLinearLayout).ID("@id/home_root").BuildLayout("fragment_home"),
	}
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpSetContentView, "@layout/activity_main"),
				ins(smali.OpGetFragmentManager),
				ins(smali.OpBeginTransaction),
				ins(smali.OpTxnAdd, "@id/far_container", "com.ex.HomeFrag"),
				ins(smali.OpTxnCommit),
				ins(smali.OpNewIntent, "com.ex.Main", "com.ex.Second"),
				ins(smali.OpStartActivity)),
		}},
		{Name: "com.ex.Second", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpSetContentView, "@layout/activity_second")),
		}},
		{Name: "com.ex.HomeFrag", Super: smali.ClassFragment, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreateView", ins(smali.OpSetContentView, "@layout/fragment_home")),
		}},
	}
	got := byCode(lintApp(t, man, layouts, classes), "FL007")
	if len(got) != 1 || got[0].Class != "com.ex.Main" || got[0].Severity != lint.SeverityError {
		t.Fatalf("FL007 = %v, want one error on com.ex.Main", got)
	}
}

// FL008: Req require-extra's "token"; one caller supplies it, the other
// never put-extra's before starting, and a second activity with an
// unsupplied key is flagged.
func TestFL008UnsuppliedRequireExtra(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").
		Launcher("com.ex.Main").Activity("com.ex.Req").Activity("com.ex.Ok"))
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpNewIntent, "com.ex.Main", "com.ex.Req"),
				ins(smali.OpStartActivity),
				ins(smali.OpNewIntent, "com.ex.Main", "com.ex.Ok"),
				ins(smali.OpPutExtra, "user", "alice"),
				ins(smali.OpStartActivity)),
		}},
		{Name: "com.ex.Req", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpRequireExtra, "token")),
		}},
		{Name: "com.ex.Ok", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpRequireExtra, "user")),
		}},
	}
	got := byCode(lintApp(t, man, nil, classes), "FL008")
	if len(got) != 1 || got[0].Class != "com.ex.Req" || got[0].Severity != lint.SeverityError {
		t.Fatalf("FL008 = %v, want exactly one error on com.ex.Req", got)
	}
}

// FL009: a sensitive call inside a method nothing ever invokes.
func TestFL009UnreachableSensitive(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").Launcher("com.ex.Main"))
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpLog, "up")),
			method("helper", ins(smali.OpInvokeSensitive, "contacts/query")),
		}},
	}
	got := byCode(lintApp(t, man, nil, classes), "FL009")
	if len(got) != 1 || got[0].Method != "helper" || got[0].Severity != lint.SeverityWarning {
		t.Fatalf("FL009 = %v, want one warning on com.ex.Main.helper", got)
	}
}

// FL010: a reachable location API without ACCESS_FINE_LOCATION in the
// manifest; declaring the permission silences it.
func TestFL010MissingPermission(t *testing.T) {
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpInvokeSensitive, "location/getProviders")),
		}},
	}
	man := mustBuild(t, manifest.NewBuilder("com.ex").Launcher("com.ex.Main"))
	got := byCode(lintApp(t, man, nil, classes), "FL010")
	if len(got) != 1 || got[0].Severity != lint.SeverityError {
		t.Fatalf("FL010 = %v, want one error", got)
	}

	declared := mustBuild(t, manifest.NewBuilder("com.ex").
		Permission("android.permission.ACCESS_FINE_LOCATION").Launcher("com.ex.Main"))
	if got := byCode(lintApp(t, declared, nil, classes), "FL010"); len(got) != 0 {
		t.Fatalf("FL010 fired despite the declared permission: %v", got)
	}
}

// FL011 + FL012: an action no activity filter matches, and a broadcast no
// receiver subscribes to. System (android.*) actions stay quiet.
func TestFL011FL012UnresolvedActionAndBroadcast(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.ex").Launcher("com.ex.Main"))
	classes := []*smali.Class{
		{Name: "com.ex.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpNewIntentAction, "com.ex.UNHANDLED"),
				ins(smali.OpStartActivity),
				ins(smali.OpNewIntentAction, "android.intent.action.VIEW"),
				ins(smali.OpStartActivity),
				ins(smali.OpSendBroadcast, "com.ex.PING"),
				ins(smali.OpSendBroadcast, "android.net.conn.CONNECTIVITY_CHANGE")),
		}},
	}
	ds := lintApp(t, man, nil, classes)
	if got := byCode(ds, "FL011"); len(got) != 1 || got[0].Severity != lint.SeverityWarning {
		t.Fatalf("FL011 = %v, want one warning (android.* exempt)", got)
	}
	if got := byCode(ds, "FL012"); len(got) != 1 || got[0].Severity != lint.SeverityWarning {
		t.Fatalf("FL012 = %v, want one warning (android.* exempt)", got)
	}
}

// TestRunIsDeterministic pins the sort: two runs over the same extraction
// yield identical output.
func TestRunIsDeterministic(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	ex, err := statics.Extract(app)
	if err != nil {
		t.Fatal(err)
	}
	a, b := lint.Run(ex), lint.Run(ex)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestStudyCorpusCleanAtError is the corpus-wide gate: every analyzable app
// of the 217-app study corpus lints clean at severity error.
func TestStudyCorpusCleanAtError(t *testing.T) {
	cache := artifact.NewCache()
	analyzed := 0
	for _, spec := range corpus.StudySpecs(1) {
		ex, err := cache.Extraction(spec)
		if errors.Is(err, apk.ErrPacked) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", spec.Package, err)
		}
		analyzed++
		if bad := lint.Filter(lint.Run(ex), lint.SeverityError); len(bad) > 0 {
			t.Errorf("%s: %d error diagnostics, first: %s", spec.Package, len(bad), bad[0])
		}
	}
	if want := corpus.StudySize - 10; analyzed != want {
		t.Errorf("analyzed %d apps, want %d", analyzed, want)
	}
}

// FuzzLint: whatever assembles must extract and lint without panicking.
func FuzzLint(f *testing.F) {
	f.Add(
		".class public Lcom/fz/Main;\n.super Landroid/app/Activity;\n.method public onCreate()V\n    log \"up\"\n.end method\n",
		".class public Lcom/fz/B;\n.super Landroid/app/Activity;\n.method public onCreate()V\n    new-intent com.fz.B -> com.fz.Main\n    start-activity\n.end method\n",
	)
	f.Add(
		".class public Lcom/fz/Main;\n.super Landroid/app/Activity;\n.method public onCreate()V\n    get-fragment-manager\n    begin-transaction\n.end method\n",
		".class public Lcom/fz/F;\n.super Landroid/app/Fragment;\n.method public onCreateView()V\n    log \"f\"\n.end method\n",
	)
	f.Add(
		".class public Lcom/fz/Main;\n.super Landroid/app/Activity;\n.method public onCreate()V\n    invoke-sensitive location/getProviders\n    send-broadcast com.fz.PING\n.end method\n",
		".class public Lcom/fz/B;\n.super Landroid/app/Activity;\n.method public helper()V\n    require-extra \"k\"\n.end method\n",
	)
	f.Add(".class Lp/A;\n", "garbage")
	f.Fuzz(func(t *testing.T, src1, src2 string) {
		c1, err := smali.ParseClass("f1.smali", []byte(src1))
		if err != nil {
			return
		}
		c2, err := smali.ParseClass("f2.smali", []byte(src2))
		if err != nil {
			return
		}
		mb := manifest.NewBuilder("com.fz").Launcher(c1.Name)
		if c2.Name != c1.Name {
			mb.Activity(c2.Name)
		}
		man, err := mb.Build()
		if err != nil {
			return
		}
		app, err := apk.Assemble(man, nil, []*smali.Class{c1, c2})
		if err != nil {
			return
		}
		ex, err := statics.Extract(app)
		if err != nil {
			return
		}
		ds := lint.Run(ex)
		for _, d := range ds {
			if d.Code == "" || d.Severity < lint.SeverityInfo || d.Severity > lint.SeverityError {
				t.Fatalf("malformed diagnostic: %+v", d)
			}
			_ = d.String()
		}
	})
}

// FL013: two seeded gap defects. Iso's sensitive call sits in an activity no
// launcher path reaches (forced starts only); Main$1's sits behind an
// inner-class dispatch with no bound widget, so the launcher path exists but
// cannot be actuated — the diagnostic names the blocking edge.
func TestFL013LauncherBlockedSensitive(t *testing.T) {
	man := mustBuild(t, manifest.NewBuilder("com.l13").
		Launcher("com.l13.Main").
		Activity("com.l13.Iso"))
	classes := []*smali.Class{
		{Name: "com.l13.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate", ins(smali.OpLog, "up")),
		}},
		{Name: "com.l13.Main$1", Super: smali.ClassObject, Access: []string{"public"}, Methods: []*smali.Method{
			method("run", ins(smali.OpInvokeSensitive, "phone/getDeviceId")),
		}},
		// Iso transitions INTO Main (so it is effective, not isolated) but
		// nothing on the launcher side ever starts it.
		{Name: "com.l13.Iso", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpInvokeSensitive, "location/getProviders"),
				ins(smali.OpNewIntent, "com.l13.Iso", "com.l13.Main"),
				ins(smali.OpStartActivity)),
		}},
	}
	got := byCode(lintApp(t, man, nil, classes), "FL013")
	if len(got) != 2 {
		t.Fatalf("FL013 findings = %d, want 2: %v", len(got), got)
	}
	var sawIso, sawInner bool
	for _, d := range got {
		if d.Severity != lint.SeverityWarning {
			t.Errorf("severity = %s, want warning", d.Severity)
		}
		switch d.Class {
		case "com.l13.Iso":
			sawIso = true
			if !strings.Contains(d.Msg, "location/getProviders") {
				t.Errorf("Iso finding does not name the API: %s", d.Msg)
			}
		case "com.l13.Main$1":
			sawInner = true
			if !strings.Contains(d.Msg, "inner") || !strings.Contains(d.Msg, "com.l13.Main$1") {
				t.Errorf("inner finding does not name the blocking edge: %s", d.Msg)
			}
		default:
			t.Errorf("unexpected FL013 position %s: %s", d.Class, d.Msg)
		}
	}
	if !sawIso || !sawInner {
		t.Errorf("missing expected findings (iso=%v inner=%v): %v", sawIso, sawInner, got)
	}

	// A launcher-clickable site stays clean: the same API behind a bound
	// listener produces no FL013.
	cleanMan := mustBuild(t, manifest.NewBuilder("com.l13b").Launcher("com.l13b.Main"))
	cleanLayouts := []*layout.Layout{
		layout.Root(layout.TypeLinearLayout).ID("@id/root").
			Child(layout.Root(layout.TypeButton).ID("@id/btn_go").Text("go")).
			BuildLayout("activity_main"),
	}
	cleanClasses := []*smali.Class{
		{Name: "com.l13b.Main", Super: smali.ClassActivity, Access: []string{"public"}, Methods: []*smali.Method{
			method("onCreate",
				ins(smali.OpSetContentView, "@layout/activity_main"),
				ins(smali.OpSetClickListener, "@id/btn_go", "onGo")),
			method("onGo", ins(smali.OpInvokeSensitive, "phone/getDeviceId")),
		}},
	}
	if got := byCode(lintApp(t, cleanMan, cleanLayouts, cleanClasses), "FL013"); len(got) != 0 {
		t.Errorf("clean app produced FL013: %v", got)
	}
}
