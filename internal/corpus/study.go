package corpus

import "fmt"

// The 27 Google Play categories of the §VII-A dataset study.
var studyCategories = []string{
	"tools", "entertainment", "newsmagazine", "businessoffice", "booksreference",
	"education", "lifestyle", "travel", "shopping", "communication",
	"productivity", "finance", "music", "photography", "social",
	"sports", "weather", "health", "maps", "food",
	"personalization", "video", "medical", "parenting", "auto",
	"art", "events",
}

// Study parameters: 217 popular apps, of which a handful are packed and
// cannot be analyzed (the paper rules them out), and 91% of the analyzable
// ones use Fragment components.
const (
	// StudySize is the number of downloaded apps.
	StudySize = 217
	// studyPacked apps fail decompilation.
	studyPacked = 10
	// studyNoFragments apps use no fragments at all; the remaining
	// analyzable apps all do. (217-10-18)/(217-10) = 189/207 ≈ 91.3%.
	studyNoFragments = 18
)

// StudySpecs deterministically generates the 217-app study corpus across the
// 27 categories. App i is packed when i%21 == 20 (10 apps) and
// fragment-free for the first 18 non-packed slots of every 11th position;
// everything else embeds fragments. The seed only perturbs app shapes, not
// the category or fragment-usage assignment, so the study statistic is
// stable.
func StudySpecs(seed int64) []*AppSpec {
	rng := newRand(seed)
	var specs []*AppSpec
	packed := 0
	noFrag := 0
	for i := 0; i < StudySize; i++ {
		cat := studyCategories[i%len(studyCategories)]
		pkg := fmt.Sprintf("com.%s.app%03d", cat, i)
		spec := RandomSpec(pkg, rng.Int63())
		spec.Downloads = "500,000+"
		ensureFragment(spec)
		if packed < studyPacked && i%21 == 20 {
			packed++
			spec.Packed = true
			continueAppend(&specs, spec)
			continue
		}
		if noFrag < studyNoFragments && i%11 == 3 {
			noFrag++
			stripFragments(spec)
		}
		continueAppend(&specs, spec)
	}
	return specs
}

func continueAppend(specs *[]*AppSpec, s *AppSpec) { *specs = append(*specs, s) }

// ensureFragment guarantees a spec uses at least one fragment, keeping the
// study's usage statistic independent of the seed.
func ensureFragment(spec *AppSpec) {
	if spec.UsesFragments() {
		return
	}
	spec.Fragments = append(spec.Fragments, FragmentSpec{Name: "HomeFragment"})
	spec.Activities[0].Wires = append(spec.Activities[0].Wires,
		FragmentWire{Fragment: "HomeFragment", Kind: WireTxnOnCreate})
}

// stripFragments removes all fragment usage from a spec.
func stripFragments(spec *AppSpec) {
	spec.Fragments = nil
	spec.Switches = nil
	for i := range spec.Activities {
		spec.Activities[i].Wires = nil
	}
}

// RandomSpec generates a small, valid app with a seeded shape: a tree of
// activities, a sprinkle of fragments across all wire kinds, optional gates
// and drawers. Property tests run the whole pipeline over these.
func RandomSpec(pkg string, seed int64) *AppSpec {
	rng := newRand(seed)
	spec := &AppSpec{Package: pkg}

	nActs := 2 + rng.Intn(6)
	names := make([]string, nActs)
	for i := range names {
		if i == 0 {
			names[i] = "Main"
		} else {
			names[i] = fmt.Sprintf("Act%d", i)
		}
	}
	spec.Activities = append(spec.Activities, ActivitySpec{Name: "Main", Launcher: true})
	for _, n := range names[1:] {
		a := ActivitySpec{Name: n}
		if rng.Intn(8) == 0 {
			a.RequiresExtra = "ctx"
		}
		spec.Activities = append(spec.Activities, a)
	}
	for i, n := range names[1:] {
		parent := names[rng.Intn(i+1)]
		kind := TransButton
		switch rng.Intn(6) {
		case 0:
			kind = TransDrawerButton
		case 1:
			kind = TransSlideDrawer
		case 2:
			kind = TransAction
		}
		tr := Transition{From: parent, To: n, Kind: kind}
		if kind == TransAction {
			tr.Action = pkg + ".ACTION_" + n
		}
		if kind == TransButton && rng.Intn(6) == 0 {
			tr.Gate = &InputGate{}
		}
		spec.Transition = append(spec.Transition, tr)
	}

	nFrags := rng.Intn(7)
	wireKinds := []WireKind{
		WireTxnOnCreate, WireTxnButton, WireTxnDrawer, WireTxnSlideDrawer,
		WireInflate, WireStatic, WireReferenceOnly,
	}
	for i := 0; i < nFrags; i++ {
		fn := fmt.Sprintf("Frag%d", i)
		fs := FragmentSpec{Name: fn}
		if rng.Intn(8) == 0 {
			fs.RequiresArgs = true
		}
		spec.Fragments = append(spec.Fragments, fs)
		host := names[rng.Intn(len(names))]
		kind := wireKinds[rng.Intn(len(wireKinds))]
		for j := range spec.Activities {
			if spec.Activities[j].Name == host {
				spec.Activities[j].Wires = append(spec.Activities[j].Wires, FragmentWire{Fragment: fn, Kind: kind})
			}
		}
	}
	return spec
}

// UsesFragments reports whether the spec wires or declares any fragments.
func (s *AppSpec) UsesFragments() bool {
	return len(s.Fragments) > 0
}
