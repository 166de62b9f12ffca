package corpus

import (
	"fmt"
	"math/rand"
)

// SpecSource is a random-access corpus of app specs. At(i) materializes the
// i-th spec on demand, so a source never needs to hold the whole corpus in
// memory: a streaming pipeline asks for each spec exactly when the app enters
// its build stage and drops it when the fold releases the app. At must be
// pure — same i, same spec — and safe for concurrent callers.
type SpecSource interface {
	Len() int
	At(i int) *AppSpec
}

// SliceSource adapts a pre-built spec slice to SpecSource (the classic
// fixed corpora: the 15 Table I apps, the 217-app study).
type SliceSource []*AppSpec

// Len returns the corpus size.
func (s SliceSource) Len() int { return len(s) }

// At returns the i-th spec.
func (s SliceSource) At(i int) *AppSpec { return s[i] }

// Family axis labels, as written into the appgen manifest and asserted by
// tests. Every family member carries the axes that apply to its index.
const (
	AxisPacked        = "packed"
	AxisNoFragments   = "no-fragments"
	AxisDeepLink      = "deeplink"
	AxisReceiverEntry = "receiver-entry"
	AxisPopup         = "popup"
)

// familyBroadcastActions is the event vocabulary family receivers subscribe
// to; the per-app custom push action is appended at generation time.
var familyBroadcastActions = []string{
	"android.intent.action.BOOT_COMPLETED",
	"android.net.conn.CONNECTIVITY_CHANGE",
	"android.provider.Telephony.SMS_RECEIVED",
}

// familyReceiverAPIs are the sensitive APIs family receivers invoke in
// onReceive (a receiver reading identifiers on a system event is the classic
// background-entry-point pattern the sensitive analysis wants to observe).
var familyReceiverAPIs = []string{
	"phone/getDeviceId",
	"location/getAllProviders",
	"internet/Connectivity.getActiveNetworkInfo",
}

// Family is the lazily generated app-family corpus: a deterministic function
// (seed, index) → spec that parameterizes the study shapes into an arbitrary
// number of apps — 10k+ for the corpus-scale study — without ever
// materializing a spec slice. Beyond the study's category/packed/fragment-use
// axes it covers two scenario axes the fixed corpora do not: broadcast
// receivers as background entry points (receivers subscribing to system
// events, invoking sensitive APIs, and launching activities from onReceive)
// and deep links (activities reachable from outside through VIEW/data intent
// filters).
type Family struct {
	n    int
	seed int64
}

// NewFamily returns the n-app family corpus for a seed. The same (n, seed)
// always denotes the same corpus, and member i is identical across any two
// families sharing the seed, whatever their sizes.
func NewFamily(n int, seed int64) *Family {
	if n < 0 {
		n = 0
	}
	return &Family{n: n, seed: seed}
}

// Len returns the corpus size.
func (f *Family) Len() int { return f.n }

// At materializes member i. Pure random access: it derives everything from
// (seed, i), so streaming pipelines can generate members concurrently and in
// any order.
func (f *Family) At(i int) *AppSpec {
	spec, _ := f.member(i)
	return spec
}

// Axes returns the scenario-axis labels of member i, in a fixed order — the
// appgen family manifest records them next to each generated archive.
func (f *Family) Axes(i int) []string {
	_, axes := f.member(i)
	return axes
}

// memberSeed spreads (seed, i) into an independent per-member RNG seed with
// a splitmix64 round, so neighbouring indexes get uncorrelated shapes and
// At(i) never needs the RNG state of members 0..i-1.
func (f *Family) memberSeed(i int) int64 {
	z := uint64(f.seed)*0xBF58476D1CE4E5B9 + uint64(i)*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// member generates spec i and its axis labels. The axis assignment is a pure
// function of the index (the seed only perturbs shapes), so corpus-level
// statistics — packed share, fragment share, axis mix — are stable across
// seeds, exactly like the 217-app study.
func (f *Family) member(i int) (*AppSpec, []string) {
	cat := studyCategories[i%len(studyCategories)]
	pkg := fmt.Sprintf("com.%s.fam%06d", cat, i)
	rng := newRand(f.memberSeed(i))
	spec := RandomSpec(pkg, rng.Int63())
	spec.Downloads = "1,000,000+"
	ensureFragment(spec)

	// ~1% packed, like the study's 10/217; packed apps never decompile, so no
	// other axis applies.
	if i%97 == 96 {
		spec.Packed = true
		return spec, []string{AxisPacked}
	}

	var axes []string
	// ~8% fragment-free keeps the family fragment share near the study's 91%.
	if i%13 == 5 {
		stripFragments(spec)
		axes = append(axes, AxisNoFragments)
	}
	if i%4 == 2 {
		f.addDeepLinks(spec, rng)
		axes = append(axes, AxisDeepLink)
	}
	if i%5 == 1 {
		f.addReceiver(spec, rng)
		axes = append(axes, AxisReceiverEntry)
	}
	if i%23 == 7 {
		spec.Activities[0].PopupOnCreate = true
		axes = append(axes, AxisPopup)
	}
	return spec, axes
}

// addDeepLinks marks one or two activities externally reachable through VIEW
// intent filters. Deep links are extra entry points next to the launcher and
// the in-app transitions, so they never make a previously reachable activity
// unreachable.
func (f *Family) addDeepLinks(spec *AppSpec, rng *rand.Rand) {
	n := 1 + rng.Intn(2)
	if n > len(spec.Activities) {
		n = len(spec.Activities)
	}
	start := rng.Intn(len(spec.Activities))
	for k := 0; k < n; k++ {
		a := &spec.Activities[(start+k)%len(spec.Activities)]
		a.DeepLink = "app://" + spec.Package + "/" + lname(a.Name)
	}
}

// addReceiver appends a broadcast receiver subscribing to a system event and
// a per-app push action, invoking a sensitive API in onReceive, and — half
// the time — launching an activity from the background (the event-driven
// entry-point pattern).
func (f *Family) addReceiver(spec *AppSpec, rng *rand.Rand) {
	r := ReceiverSpec{
		Name: "PushReceiver",
		Actions: []string{
			familyBroadcastActions[rng.Intn(len(familyBroadcastActions))],
			spec.Package + ".action.PUSH",
		},
		Sensitive: []string{familyReceiverAPIs[rng.Intn(len(familyReceiverAPIs))]},
	}
	if rng.Intn(2) == 0 {
		r.StartsActivity = spec.Activities[rng.Intn(len(spec.Activities))].Name
	}
	spec.Receivers = append(spec.Receivers, r)
}
