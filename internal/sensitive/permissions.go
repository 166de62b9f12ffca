package sensitive

// categoryPermissions maps sensitive-API categories to the Android
// permissions guarding them. Categories with no entry are callable without a
// dangerous permission (which is exactly why XPrivacy monitors them: "most
// sensitive operations are allowed by default at the time of installing an
// app", §VII-C).
var categoryPermissions = map[string][]string{
	"browser":  {"com.android.browser.permission.READ_HISTORY_BOOKMARKS"},
	"internet": {"android.permission.INTERNET"},
	"location": {"android.permission.ACCESS_FINE_LOCATION"},
	"media":    {"android.permission.CAMERA"},
	"messages": {"android.permission.READ_SMS"},
	"network":  {"android.permission.ACCESS_NETWORK_STATE"},
	"phone":    {"android.permission.READ_PHONE_STATE"},
	"storage":  {"android.permission.WRITE_EXTERNAL_STORAGE"},
}

// PermissionsFor returns the permissions guarding an API, nil when the API
// needs none.
func PermissionsFor(api string) []string {
	return append([]string(nil), categoryPermissions[Category(api)]...)
}

// PermissionFinding reports one observed API invocation whose guarding
// permission the manifest does not declare — either a latent crash
// (SecurityException at runtime) or evidence of a permission bypass.
type PermissionFinding struct {
	API     string
	Classes []string
	Missing []string
}

// AuditPermissions checks every observed usage against the declared
// permission set and returns the findings in catalog order.
func AuditPermissions(declared []string, usages []Usage) []PermissionFinding {
	have := make(map[string]bool, len(declared))
	for _, p := range declared {
		have[p] = true
	}
	var out []PermissionFinding
	for _, u := range usages {
		var missing []string
		for _, p := range PermissionsFor(u.API) {
			if !have[p] {
				missing = append(missing, p)
			}
		}
		if len(missing) == 0 {
			continue
		}
		out = append(out, PermissionFinding{
			API:     u.API,
			Classes: append([]string(nil), u.Classes...),
			Missing: missing,
		})
	}
	return out
}
