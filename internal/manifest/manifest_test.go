package manifest

import (
	"strings"
	"testing"
)

func sample(t *testing.T) *Manifest {
	t.Helper()
	m, err := NewBuilder("com.example.app").
		Permission("android.permission.INTERNET").
		Launcher("com.example.app.MainActivity").
		Activity("com.example.app.DetailActivity").
		ActivityWithAction("com.example.app.SearchActivity", "com.example.app.SEARCH").
		ExportedActivity("com.example.app.ShareActivity").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestEncodeParseRoundTrip(t *testing.T) {
	m := sample(t)
	data, err := m.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !strings.Contains(string(data), `package="com.example.app"`) {
		t.Fatalf("encoded XML missing package attr:\n%s", data)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if back.Package != m.Package {
		t.Errorf("Package = %q, want %q", back.Package, m.Package)
	}
	if got, want := back.ActivityNames(), m.ActivityNames(); len(got) != len(want) {
		t.Fatalf("activities = %v, want %v", got, want)
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("activity[%d] = %q, want %q", i, got[i], want[i])
			}
		}
	}
	if len(back.Permissions) != 1 || back.Permissions[0].Name != "android.permission.INTERNET" {
		t.Errorf("permissions = %+v", back.Permissions)
	}
}

func TestEntryActivity(t *testing.T) {
	m := sample(t)
	entry, err := m.EntryActivity()
	if err != nil {
		t.Fatalf("EntryActivity: %v", err)
	}
	if entry != "com.example.app.MainActivity" {
		t.Errorf("entry = %q", entry)
	}
}

func TestEntryActivityErrors(t *testing.T) {
	noEntry, err := NewBuilder("p").Activity("p.A").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := noEntry.EntryActivity(); err == nil {
		t.Error("no launcher: want error")
	}
	two, err := NewBuilder("p").Launcher("p.A").Launcher("p.B").Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := two.EntryActivity(); err == nil {
		t.Error("two launchers: want error")
	} else if msg := err.Error(); !strings.Contains(msg, "p.A, p.B") {
		t.Errorf("two launchers: error %q does not name both", msg)
	}
}

func TestActivityForAction(t *testing.T) {
	m := sample(t)
	got, ok := m.ActivityForAction("com.example.app.SEARCH")
	if !ok || got != "com.example.app.SearchActivity" {
		t.Fatalf("ActivityForAction = %q, %v", got, ok)
	}
	if _, ok := m.ActivityForAction("com.example.app.NONE"); ok {
		t.Error("unknown action resolved")
	}
	// MAIN resolves to the launcher.
	got, ok = m.ActivityForAction(ActionMain)
	if !ok || got != "com.example.app.MainActivity" {
		t.Fatalf("ActivityForAction(MAIN) = %q, %v", got, ok)
	}
}

// ForceStartable reports whether the activity may be started directly with an
// explicit component intent from outside the app: it must be exported or
// carry a MAIN action.
func (m *Manifest) ForceStartable(name string) bool {
	for _, a := range m.Application.Activities {
		if a.Name != name {
			continue
		}
		return a.Exported || hasActionCategory(a, ActionMain, "")
	}
	return false
}

// PatchAllMain returns a deep copy of the manifest in which every activity
// carries an <action android:name="android.intent.action.MAIN"/> filter.
// This reproduces the paper's static-phase manifest modification that lets
// FragDroid forcibly start otherwise unreachable Activities with
// `am start -n <COMPONENT>` during the second dynamic loop.
func (m *Manifest) PatchAllMain() *Manifest {
	cp := m.Clone()
	for i := range cp.Application.Activities {
		a := &cp.Application.Activities[i]
		if hasActionCategory(*a, ActionMain, "") {
			continue
		}
		a.Filters = append(a.Filters, IntentFilter{Actions: []Action{{Name: ActionMain}}})
	}
	return cp
}

func TestForceStartable(t *testing.T) {
	m := sample(t)
	tests := []struct {
		name string
		want bool
	}{
		{"com.example.app.MainActivity", true}, // MAIN action
		{"com.example.app.DetailActivity", false},
		{"com.example.app.ShareActivity", true}, // exported
		{"com.example.app.Missing", false},
	}
	for _, tc := range tests {
		if got := m.ForceStartable(tc.name); got != tc.want {
			t.Errorf("ForceStartable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPatchAllMain(t *testing.T) {
	m := sample(t)
	patched := m.PatchAllMain()
	for _, a := range patched.ActivityNames() {
		if !patched.ForceStartable(a) {
			t.Errorf("after patch, %s not force-startable", a)
		}
	}
	// Original untouched.
	if m.ForceStartable("com.example.app.DetailActivity") {
		t.Error("PatchAllMain mutated the original manifest")
	}
	// Entry remains unique: patch must not add LAUNCHER categories.
	if entry, err := patched.EntryActivity(); err != nil || entry != "com.example.app.MainActivity" {
		t.Errorf("patched entry = %q, %v", entry, err)
	}
	// Idempotent on the launcher: no duplicate MAIN filter added.
	for _, a := range patched.Application.Activities {
		if a.Name != "com.example.app.MainActivity" {
			continue
		}
		if len(a.Filters) != 1 {
			t.Errorf("launcher filters = %d, want 1", len(a.Filters))
		}
	}
}

func TestValidate(t *testing.T) {
	if _, err := NewBuilder("").Launcher("p.A").Build(); err == nil {
		t.Error("empty package: want error")
	}
	if _, err := NewBuilder("p").Activity("p.A").Activity("p.A").Build(); err == nil {
		t.Error("duplicate activity: want error")
	}
	if _, err := NewBuilder("p").Activity("").Build(); err == nil {
		t.Error("empty activity name: want error")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not xml")); err == nil {
		t.Error("garbage input: want error")
	}
	if _, err := Parse([]byte(`<manifest><application/></manifest>`)); err == nil {
		t.Error("missing package: want error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := sample(t)
	cp := m.Clone()
	cp.Application.Activities[0].Filters[0].Actions[0].Name = "mutated"
	if m.Application.Activities[0].Filters[0].Actions[0].Name == "mutated" {
		t.Fatal("Clone shares filter slices with original")
	}
}
