package corpus

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"fragdroid/internal/sensitive"
)

// PaperRow describes one row of Table I: the app identity, the effective
// component counts found by static extraction (the Sum columns), and the
// counts FragDroid visited (the Visited columns). The corpus generator
// engineers an app whose structure produces exactly these numbers under the
// documented coverage semantics (see EXPERIMENTS.md for the FiVA caveat).
type PaperRow struct {
	Package   string
	Downloads string
	// VisActs/SumActs are the Activities columns.
	VisActs, SumActs int
	// VisFrags/SumFrags are the Fragments columns.
	VisFrags, SumFrags int
	// PaperFiVAVis/PaperFiVASum are the paper's Fragments-in-Visited-
	// Activities columns, kept for the comparison table.
	PaperFiVAVis, PaperFiVASum int
	// GateMiss is how many of the unreachable activities hide behind wrong
	// input (the com.weather.Weather failure) rather than slide-only drawers.
	GateMiss int
	// Popup opens an app-bar popup on the entry activity (com.adobe.reader).
	Popup bool
}

// PaperRows returns the 15 evaluated apps of Table I, in table order.
func PaperRows() []PaperRow {
	return []PaperRow{
		{Package: "au.com.digitalstampede.formula", Downloads: "50,000+", VisActs: 1, SumActs: 2, VisFrags: 2, SumFrags: 2, PaperFiVAVis: 1, PaperFiVASum: 1},
		{Package: "com.adobe.reader", Downloads: "100,000,000+", VisActs: 7, SumActs: 13, VisFrags: 5, SumFrags: 5, PaperFiVAVis: 2, PaperFiVASum: 2, Popup: true},
		{Package: "com.advancedprocessmanager", Downloads: "10,000,000+", VisActs: 5, SumActs: 7, VisFrags: 10, SumFrags: 10, PaperFiVAVis: 10, PaperFiVASum: 10},
		{Package: "com.aircrunch.shopalerts", Downloads: "1,000,000+", VisActs: 7, SumActs: 10, VisFrags: 8, SumFrags: 13, PaperFiVAVis: 4, PaperFiVASum: 6},
		{Package: "com.c51", Downloads: "5,000,000+", VisActs: 28, SumActs: 35, VisFrags: 2, SumFrags: 3, PaperFiVAVis: 2, PaperFiVASum: 3},
		{Package: "com.cnn.mobile.android.phone", Downloads: "10,000,000+", VisActs: 16, SumActs: 23, VisFrags: 3, SumFrags: 10, PaperFiVAVis: 2, PaperFiVASum: 4},
		{Package: "com.happy2.bbmanga", Downloads: "1,000,000+", VisActs: 2, SumActs: 5, VisFrags: 3, SumFrags: 5, PaperFiVAVis: 0, PaperFiVASum: 2},
		{Package: "com.inditex.zara", Downloads: "10,000,000+", VisActs: 7, SumActs: 9, VisFrags: 7, SumFrags: 15, PaperFiVAVis: 2, PaperFiVASum: 10},
		{Package: "com.mobilemotion.dubsmash", Downloads: "100,000,000+", VisActs: 10, SumActs: 11, VisFrags: 0, SumFrags: 3, PaperFiVAVis: 0, PaperFiVASum: 3},
		{Package: "com.ovuline.pregnancy", Downloads: "1,000,000+", VisActs: 17, SumActs: 27, VisFrags: 8, SumFrags: 37, PaperFiVAVis: 8, PaperFiVASum: 26},
		{Package: "com.weather.Weather", Downloads: "50,000,000+", VisActs: 13, SumActs: 17, VisFrags: 1, SumFrags: 1, PaperFiVAVis: 1, PaperFiVASum: 1, GateMiss: 4},
		{Package: "com.where2get.android.app", Downloads: "500,000+", VisActs: 9, SumActs: 16, VisFrags: 4, SumFrags: 8, PaperFiVAVis: 0, PaperFiVASum: 4},
		{Package: "imoblife.toolbox.full", Downloads: "10,000,000+", VisActs: 14, SumActs: 14, VisFrags: 8, SumFrags: 9, PaperFiVAVis: 4, PaperFiVASum: 5},
		{Package: "net.aviascanner.aviascanner", Downloads: "1,000,000+", VisActs: 7, SumActs: 7, VisFrags: 4, SumFrags: 4, PaperFiVAVis: 4, PaperFiVASum: 4},
		{Package: "org.rbc.odb", Downloads: "1,000,000+", VisActs: 4, SumActs: 5, VisFrags: 5, SumFrags: 8, PaperFiVAVis: 2, PaperFiVASum: 3},
	}
}

// APICell is one planned Table II cell: which API an app invokes from which
// component kinds.
type APICell struct {
	API        string
	ByActivity bool
	ByFragment bool
}

// PaperAPICells plans the sensitive-API placement across the 15 apps so that
// the §VII-C aggregates reproduce exactly: 46 distinct APIs, 269 invocation
// relations (a both-sides cell counts two), 132 fragment-associated
// relations (49.07% ≈ the paper's 49%), of which 26 are fragment-only
// (9.67% ≥ the paper's 9.6% lower bound for what Activity-level tools miss).
// The per-cell placement is deterministic; EXPERIMENTS.md records why the
// exact per-cell pattern of the scanned Table II is not recoverable.
//
// The plan is a pure function of the fixed Table I rows, so it is computed
// once and shared; callers must treat the returned map and its slices as
// read-only.
func PaperAPICells() map[string][]APICell {
	apiCellsOnce.Do(func() { apiCells = buildPaperAPICells() })
	return apiCells
}

var (
	apiCellsOnce sync.Once
	apiCells     map[string][]APICell
)

func buildPaperAPICells() map[string][]APICell {
	rows := PaperRows()
	const (
		bothCells = 106 // 2 relations each
		actCells  = 31  // 1 relation each
		fragCells = 26  // 1 relation each
	)
	total := bothCells + actCells + fragCells
	out := make(map[string][]APICell, len(rows))
	for i := 0; i < total; i++ {
		api := sensitive.Catalog[i%len(sensitive.Catalog)]
		app := rows[i%len(rows)].Package
		cell := APICell{API: api}
		switch {
		case i < bothCells:
			cell.ByActivity, cell.ByFragment = true, true
		case i < bothCells+actCells:
			cell.ByActivity = true
		default:
			cell.ByFragment = true
		}
		out[app] = append(out[app], cell)
	}
	return out
}

// StressSpec generates a large app for scalability measurements: n reachable
// activities in a fan-out-3 tree, n/10 hidden ones, fragments on every
// visited activity, and the usual obstacle mix. The paper notes A3E needed
// 87–104 minutes per app (§IX); the stress spec checks how exploration cost
// scales on the simulator.
func StressSpec(n int) *AppSpec {
	if n < 2 {
		n = 2
	}
	row := PaperRow{
		Package:      fmt.Sprintf("com.stress.n%d", n),
		Downloads:    "1+",
		VisActs:      n,
		SumActs:      n + n/10,
		VisFrags:     n,
		SumFrags:     n + n/5,
		PaperFiVAVis: n,
		PaperFiVASum: n,
	}
	return PaperSpec(row)
}

// PaperSpec generates the synthetic app for one Table I row, including its
// planned sensitive-API cells.
func PaperSpec(row PaperRow) *AppSpec {
	spec := &AppSpec{Package: row.Package, Downloads: row.Downloads}
	cells := PaperAPICells()[row.Package]

	// --- Activities ---------------------------------------------------
	// Visited activities form a shallow tree of button transitions rooted at
	// the launcher; unreachable ones hang off the launcher's slide-only
	// drawer (plus GateMiss input-gated ones) and require an intent extra so
	// forced starts crash too. spec.Activities lists visNames, then
	// missNames, so visNames[i] is activity i.
	visNames := make([]string, row.VisActs)
	for i := range visNames {
		if i == 0 {
			visNames[i] = "Main"
		} else {
			visNames[i] = numbered("Act", i)
		}
	}
	missActs := row.SumActs - row.VisActs
	missNames := make([]string, missActs)
	for i := range missNames {
		missNames[i] = numbered("Hidden", i)
	}

	spec.Activities = make([]ActivitySpec, 0, row.VisActs+missActs)
	spec.Activities = append(spec.Activities, ActivitySpec{
		Name: "Main", Launcher: true, PopupOnCreate: row.Popup,
	})
	for _, n := range visNames[1:] {
		spec.Activities = append(spec.Activities, ActivitySpec{Name: n})
	}
	for _, n := range missNames {
		spec.Activities = append(spec.Activities, ActivitySpec{Name: n, RequiresExtra: "ctx"})
	}
	if n := row.VisActs - 1 + missActs; n > 0 {
		spec.Transition = make([]Transition, 0, n)
	}
	for i, n := range visNames[1:] {
		parent := visNames[(i)/3] // tree with fan-out 3
		tr := Transition{From: parent, To: n, Kind: TransButton}
		// Every fifth transition goes through an implicit intent action, so
		// Algorithm 1's manifest-resolution branch runs on real corpus apps.
		if i%5 == 4 {
			tr.Kind = TransAction
			tr.Action = row.Package + ".OPEN_" + strings.ToUpper(n)
		}
		spec.Transition = append(spec.Transition, tr)
	}
	for i, n := range missNames {
		kind := TransSlideDrawer
		var gate *InputGate
		if i < row.GateMiss {
			kind = TransButton
			gate = &InputGate{} // default expected value; no input supplied
		}
		spec.Transition = append(spec.Transition, Transition{From: "Main", To: n, Kind: kind, Gate: gate})
	}

	// --- Fragments ------------------------------------------------------
	// u fragments live in unreachable activities; m are unreachable inside
	// visited hosts (inflate-view, reference-only, requires-args); the rest
	// are visited through a rotation of wire kinds.
	fivaSum := row.PaperFiVASum
	if row.VisFrags > fivaSum {
		fivaSum = row.VisFrags
	}
	u := row.SumFrags - fivaSum
	if missActs == 0 || u < 0 {
		u = 0
	}
	m := row.SumFrags - row.VisFrags - u

	visWires := []WireKind{WireTxnOnCreate, WireTxnButton, WireTxnDrawer, WireTxnSlideDrawer, WireStatic}
	missWires := []WireKind{WireInflate, WireReferenceOnly, WireTxnSlideDrawer}

	addWire := func(act int, frag string, kind WireKind) {
		spec.Activities[act].Wires = append(spec.Activities[act].Wires, FragmentWire{Fragment: frag, Kind: kind})
	}

	fragIdx := 0
	newFrag := func(prefix string) string {
		fragIdx++
		return numbered(prefix, fragIdx)
	}

	if n := row.VisFrags + maxInt(m, 0) + u; n > 0 {
		spec.Fragments = make([]FragmentSpec, 0, n)
	}
	// exec lists the fragments that execute at runtime, by index: the
	// visited ones and the inflate-view ones (which run their onCreateView
	// although FragDroid cannot credit the visit).
	exec := make([]int, 0, row.VisFrags+maxInt(m, 0))
	// prevFrag and prevHost are the last container-committed visited
	// fragment and its host.
	prevFrag, prevHost := "", -1
	for i := 0; i < row.VisFrags; i++ {
		name := newFrag("Frag")
		// Cluster fragments onto hosts in blocks so sibling fragments share
		// an Activity and F→F switches (Figure 1 tabs) genuinely occur.
		host := (i * len(visNames)) / maxInt(row.VisFrags, 1) % len(visNames)
		kind := visWires[i%len(visWires)]
		exec = append(exec, len(spec.Fragments))
		spec.Fragments = append(spec.Fragments, FragmentSpec{Name: name})
		addWire(host, name, kind)
		// Occasionally chain an F→F switch between two sibling visited
		// fragments on the same host (Figure 1 tab behaviour). Only
		// container-committed fragments can host switch handlers.
		if prevHost == host && kind != WireStatic && i%4 == 1 {
			spec.Switches = append(spec.Switches, FragmentSwitch{From: prevFrag, To: name})
		}
		if kind != WireStatic {
			prevFrag, prevHost = name, host
		}
	}
	for i := 0; i < m; i++ {
		name := newFrag("MissFrag")
		host := i % len(visNames)
		kind := missWires[i%len(missWires)]
		fs := FragmentSpec{Name: name}
		if kind == WireTxnSlideDrawer {
			fs.RequiresArgs = true // the com.inditex.zara reflection failure
		}
		if kind != WireInflate {
			// Shadow API: statically visible, dynamically dead code —
			// reference-only and requires-args fragments never execute, so
			// these sites widen the static-vs-dynamic gap without touching
			// the measured Table II. Inflate-view fragments DO run their
			// onCreateView and must stay clean.
			fs.Sensitive = []string{shadowAPI(i)}
		} else {
			exec = append(exec, len(spec.Fragments))
		}
		spec.Fragments = append(spec.Fragments, fs)
		addWire(host, name, kind)
	}
	for i := 0; i < u; i++ {
		name := newFrag("DeepFrag")
		spec.Fragments = append(spec.Fragments, FragmentSpec{
			Name: name,
			// Hosted by a never-started activity: another dead static site.
			Sensitive: []string{shadowAPI(i + 3)},
		})
		addWire(row.VisActs+i%len(missNames), name, WireTxnOnCreate)
	}

	assignSensitive(spec, cells, len(visNames), exec)
	return spec
}

// assignSensitive distributes the planned Table II cells over components that
// actually execute: the first nVis activities (the visited ones) for the
// activity side, and the fragments exec lists for the fragment side.
func assignSensitive(spec *AppSpec, cells []APICell, nVis int, exec []int) {
	ai, fi := 0, 0
	for _, c := range cells {
		if c.ByActivity {
			a := &spec.Activities[ai%nVis]
			ai++
			a.Sensitive = append(a.Sensitive, c.API)
		}
		if c.ByFragment && len(exec) > 0 {
			f := &spec.Fragments[exec[fi%len(exec)]]
			fi++
			f.Sensitive = append(f.Sensitive, c.API)
		}
	}
}

// numbered renders prefix followed by i in at least two digits, as
// fmt.Sprintf("%s%02d", prefix, i) does for i ≥ 0.
func numbered(prefix string, i int) string {
	if i < 10 {
		return prefix + "0" + strconv.Itoa(i)
	}
	return prefix + strconv.Itoa(i)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// shadowAPI picks a deterministic catalog API for dead-code sites.
func shadowAPI(i int) string {
	return sensitive.Catalog[(i*7)%len(sensitive.Catalog)]
}
