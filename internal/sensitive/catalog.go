// Package sensitive implements FragDroid's sensitive-API analysis (§VII-C):
// the XPrivacy-derived catalog of monitored functions, a runtime collector
// that attributes invocations to Activities and/or Fragments, and the
// cross-application matrix plus aggregate statistics behind Table II.
package sensitive

import (
	"sort"
	"strings"
)

// Catalog lists the monitored sensitive APIs, keyed "category/name" exactly
// as Table II prints them. The set follows the common sensitive operation
// functions defined by XPrivacy that the paper selected.
var Catalog = []string{
	"browser/Downloads",

	"identification//proc",
	"identification/getString",
	"identification/SERIAL",

	"internet/connect",
	"internet/Connectivity.getActiveNetworkInfo",
	"internet/Connectivity.getNetworkInfo",
	"internet/inet",
	"internet/InetAddress.getAllByName",
	"internet/InetAddress.getByAddress",
	"internet/InetAddress.getByName",
	"internet/IpPrefix.getAddress",
	"internet/LinkProperties.getLinkAddresses",
	"internet/NetworkInfo.getDetailedState",
	"internet/NetworkInfo.isConnected",
	"internet/NetworkInfo.isConnectedOrConnecting",
	"internet/NetworkInterface.getNetworkInterfaces",
	"internet/WiFi.getConnectionInfo",

	"ipc/Binder",

	"location/getAllProviders",
	"location/getProviders",
	"location/isProviderEnabled",
	"location/requestLocationUpdates",

	"media/Camera.setPreviewTexture",
	"media/Camera.startPreview",

	"messages/MmsProvider",

	"network/NetworkInterface.getInetAddresses",
	"network/WiFi.getConfiguredNetworks",
	"network/WiFi.getConnectionInfo",

	"phone/Configuration.MCC",
	"phone/Configuration.MNC",
	"phone/getDeviceId",
	"phone/getNetworkCountryIso",
	"phone/getNetworkOperatorName",

	"shell/loadLibrary",

	"storage/getExternalStorageState",
	"storage/open",
	"storage/sdcard",

	"system/getInstalledApplications",
	"system/getRunningAppProcesses",
	"system/queryIntentActivities",
	"system/queryIntentServices",

	"view/getUserAgentString",
	"view/initUserAgentString",
	"view/loadUrl",
	"view/setUserAgentString",
}

// Known reports whether the API belongs to the monitored catalog.
func Known(api string) bool {
	_, ok := apiRank[api]
	return ok
}

// Category extracts the category prefix of an API ("location/getProviders" →
// "location"). APIs without a slash fall into "other".
func Category(api string) string {
	if i := strings.IndexByte(api, '/'); i > 0 {
		return api[:i]
	}
	return "other"
}

// Categories returns the distinct catalog categories in Table II order
// (first appearance).
func Categories() []string {
	var out []string
	seen := make(map[string]bool)
	for _, api := range Catalog {
		c := Category(api)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// categoryRank maps each catalog category to its Table II position;
// catalogRows lists the catalog in Table II row order, and apiRank maps each
// catalog API to its row. All three are built once per process.
var (
	categoryRank         = rankCategories()
	catalogRows, apiRank = rankCatalog()
)

func rankCategories() map[string]int {
	cats := Categories()
	rank := make(map[string]int, len(cats))
	for i, c := range cats {
		rank[c] = i
	}
	return rank
}

func rankCatalog() ([]string, map[string]int) {
	rows := append([]string(nil), Catalog...)
	SortAPIs(rows)
	rank := make(map[string]int, len(rows))
	for i, api := range rows {
		rank[api] = i
	}
	return rows, rank
}

// SortAPIs orders APIs by category (catalog order) then name, the row order
// of Table II. APIs of categories outside the catalog come last.
func SortAPIs(apis []string) {
	sort.Slice(apis, func(i, j int) bool { return apiLess(apis[i], apis[j]) })
}

// apiLess is SortAPIs' order.
func apiLess(a, b string) bool {
	ra, rb := rankOf(a), rankOf(b)
	if ra != rb {
		return ra < rb
	}
	return a < b
}

// rankOf returns the Table II position of the API's category.
func rankOf(api string) int {
	if r, ok := categoryRank[Category(api)]; ok {
		return r
	}
	return len(categoryRank)
}
