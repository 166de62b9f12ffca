package sensitive

import (
	"reflect"
	"sort"
	"testing"
)

// GuardedCategories lists the categories that require a permission, sorted.
func GuardedCategories() []string {
	out := make([]string, 0, len(categoryPermissions))
	for c := range categoryPermissions {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func TestPermissionsFor(t *testing.T) {
	if got := PermissionsFor("location/getProviders"); !reflect.DeepEqual(got,
		[]string{"android.permission.ACCESS_FINE_LOCATION"}) {
		t.Fatalf("location perms = %v", got)
	}
	if got := PermissionsFor("identification/SERIAL"); got != nil {
		t.Fatalf("identification needs no permission, got %v", got)
	}
	if got := PermissionsFor("shell/loadLibrary"); got != nil {
		t.Fatalf("shell needs no permission, got %v", got)
	}
	// Every guarded category resolves for at least one catalog API.
	for _, cat := range GuardedCategories() {
		found := false
		for _, api := range Catalog {
			if Category(api) == cat && len(PermissionsFor(api)) > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("guarded category %s has no catalog API", cat)
		}
	}
}

func TestAuditPermissions(t *testing.T) {
	usages := []Usage{
		{API: "location/getProviders", ByActivity: true, Classes: []string{"a.Main"}},
		{API: "internet/connect", ByFragment: true, Classes: []string{"a.Frag"}},
		{API: "identification/SERIAL", ByActivity: true, Classes: []string{"a.Main"}},
	}
	// Nothing declared: both guarded APIs flagged, the unguarded one not.
	findings := AuditPermissions(nil, usages)
	if len(findings) != 2 {
		t.Fatalf("findings = %+v", findings)
	}
	if findings[0].API != "location/getProviders" && findings[1].API != "location/getProviders" {
		t.Errorf("location finding missing: %+v", findings)
	}
	// Declaring the permissions clears the findings.
	declared := []string{
		"android.permission.ACCESS_FINE_LOCATION",
		"android.permission.INTERNET",
	}
	if f := AuditPermissions(declared, usages); len(f) != 0 {
		t.Fatalf("declared run still finds %+v", f)
	}
	// Partial declaration flags only the gap.
	f := AuditPermissions([]string{"android.permission.INTERNET"}, usages)
	if len(f) != 1 || f[0].API != "location/getProviders" {
		t.Fatalf("partial = %+v", f)
	}
	if !reflect.DeepEqual(f[0].Missing, []string{"android.permission.ACCESS_FINE_LOCATION"}) {
		t.Fatalf("missing = %v", f[0].Missing)
	}
}
