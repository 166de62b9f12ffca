package explorer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"testing"

	"fragdroid/internal/aftm"
	"fragdroid/internal/corpus"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

// explorationDigests pins every observable output of one exploration per
// app: the 15 Table I apps under the evaluation budget, the demo app with
// its analyst inputs, and family members 0–39 of seed 1 (the triage
// population) under the triage budget. The digests were computed before the
// explorer learned to observe each UI state once, and must never be
// regenerated: a changed digest means exploration output changed.
var explorationDigests = map[string]string{
	"table1/au.com.digitalstampede.formula": "5a320189546c10df5fd8114c5dbdfdc736a353267622fbe2c2014b4c5a391450",
	"table1/com.adobe.reader":               "a8d0b65f300056b06a2676239958dfc6a38078269dbe6e9499a3b69f9b6039bb",
	"table1/com.advancedprocessmanager":     "98a93bace468c702f7c880c5049e9fbcb0945a4cfae1f9966afa4d723c8d192c",
	"table1/com.aircrunch.shopalerts":       "c5ee773c352c152f2434c379f38a8ec301254b2825094b7d30ae1a26f32718cd",
	"table1/com.c51":                        "3b040715faf0dca5cd149dae7d49075b5cdb47f122827b9a871961715152e88f",
	"table1/com.cnn.mobile.android.phone":   "7f46a741f6c16a30e6cf7f10bae7d73f22f4baace858c59eb35b0b4926eb45cd",
	"table1/com.happy2.bbmanga":             "05b1a65d47f79034ab276f365c9b6a55dce562f2383362f386d682de6a53c0f0",
	"table1/com.inditex.zara":               "f819c03228e4cbfe7903930e863c65266dd2d30578940d419dc99c4b2d006906",
	"table1/com.mobilemotion.dubsmash":      "0fbd1cd9a2330c5939db87d73c2088e6440f61af2eef10d4db474b44f95c3167",
	"table1/com.ovuline.pregnancy":          "7c24590696efb2f722d52773237ab3581aacbf9b1fe02de946d5e90c02efcffc",
	"table1/com.weather.Weather":            "74df89c996e6ee4b86f9ae9a1bf7ab1ee07b9069b41ac0122920398c9631bd8e",
	"table1/com.where2get.android.app":      "95294217eba455167f276421cc6cb6ff219ff871817442214a4413670cf18406",
	"table1/imoblife.toolbox.full":          "47c2d3ceddf23e4094080768c329505bf26bd672e69cf7c5b7bf93a54fe8b35f",
	"table1/net.aviascanner.aviascanner":    "e4523738f28fe93341d29e93055c7507cadc1d5be2c6f3a8f82fbf78308e66a9",
	"table1/org.rbc.odb":                    "58368acb13e7e333b52930809a4665ea9a6d68713572ccea5021f44c7c5cd5f4",
	"demo":                                  "b575a460836ddbe71965bf8343aa0d1573ecfa31bad0538f166e6d1ec8cc63f0",
	"family/00":                             "da6ee9998fa43895c9a837d6c02bc556b77015fb532a8747463fbff3600397ef",
	"family/01":                             "f846c61ef1f1ca496d2b2846856b3b3fb17457c47f77ba1492c26ef125acc8ef",
	"family/02":                             "6838b1f2732d6f6de9c2685ba16c68f645b41cc5c2fa8f342dbcc6ea6edac006",
	"family/03":                             "c06614c04902602c22aae032e550ab7c7176ed3b5c4c7d327486af903bd3668e",
	"family/04":                             "e99b3c31dc91f346d6aa3cbc4f012bc0e7fa7cb320a95a7f62b58870abff65a9",
	"family/05":                             "b4ed89aba748cf478fada44bc3db1188eed6e6d9f4758096575999c78cce0d6f",
	"family/06":                             "5fd545a75dfe1fa30cf534e95ddd8ee14e1d43a6e62d5359c46d4e64e9574b69",
	"family/07":                             "12c6b81f09ea19d03c56fc1b6343a8259202db17455c0eebbeeb8104fc099f38",
	"family/08":                             "2e559c0b163e77f62563b0d64f97c2e2a261137840e336fd1cc8ccadbfad7fdb",
	"family/09":                             "0ad96e9a75c8f238f62788e83f04a8001b7e2736b448b8e8b20685f6cc252097",
	"family/10":                             "963517acbb34b99f25927b005dca2d28e2d28f5b064fb97d46f4551ba8129b99",
	"family/11":                             "0329c8b1af24bf1750a60af6a3cc3edea4f89b141063d2133e1064aa1c872c55",
	"family/12":                             "5f354590113d3117573935770733532fdec0a1f55de9586ac9903641a7782e0b",
	"family/13":                             "85b6adb55f1bfc3128d73a001f7c8c51a431f18bbf139536c0e4ffc844c524e0",
	"family/14":                             "1ad193457656649ee5e24848247e2e4f351cc46d1aaabbf995b21c76f6dc47d8",
	"family/15":                             "ecd7e9e09fcb0e9a1996a9757f6de26b3503d7073e2570e4ec66c42c0e7f7c8c",
	"family/16":                             "6dd6c2a5dd279ef162f1f643b9a35e7ff641ab5d64966ba9153c61f6cc0ca067",
	"family/17":                             "132224b8592590f6d9830dc0c18f779353abd4992f66cbb638dd8de897de1340",
	"family/18":                             "acd5acaef2659513d5c0425bfeea6ad03ea8db2467610213752ac19851498ff0",
	"family/19":                             "f3c8553f965cc0783722442b3dd730aaeb1c46735e39a13475290669a17a9275",
	"family/20":                             "41632e940c585439d3d226d6e633a2fe37c0f1e6a2bd26109871010039fbed70",
	"family/21":                             "55ebfd4fa5301fde053078e9ae5ff072495ea3232116ef2af5688b22be2bc2f6",
	"family/22":                             "5cbc696a9955c02099bdebff3be2c1f7640d7ea81adfe2e686c325457953d6ef",
	"family/23":                             "0d2f9333897ccbc6e9bd76f85631016d3c002eef5105eadd66eebd90e815d8f7",
	"family/24":                             "d042deeeedf8f1f730d746bb62df9d87740d1ba4ce0e77f532b2dd3d18f113f7",
	"family/25":                             "a32d9b4cef0db27e989a7d0006fc16a4b66568a25d204e98c394d76b83f814de",
	"family/26":                             "2c6649a92c1d21ea4bae654bf8f29c4319a84b64fd1b5d3b194de38d1656025f",
	"family/27":                             "ec6fb11b9b5655bc63dc46e21583cfd09ce1adedba3331bc6ecf86244cd45985",
	"family/28":                             "aa37a23e83eb0b45618c4d700c1388492bdb409939234de91a203ca98c8a89ca",
	"family/29":                             "1bffeef1f21e14707e8de8ce1b29a10f3c6117dc0eec6710e5b9ec248069b9f6",
	"family/30":                             "a4bb053eb058812e49291ab21f807f54f22106f8186895687375481c828eb347",
	"family/31":                             "b8d76262300f3516cb87dd1238f924493804902aa4e78e893feb13cac707e74e",
	"family/32":                             "7b8bc67bf438241ab729787763f0b75ac7e722abef4e0adc451db17c1f373cd5",
	"family/33":                             "35f9076e9116a3526139314ad7e1bad4dd01a67fc68c36364350441875567d37",
	"family/34":                             "e096f9429fa6f34c448bd81add3100f7434b94c57ad02a43c52965da58ecbd02",
	"family/35":                             "ba7368e7d5dc4bbdbf3593e928895b932426cadda8d2e6a61efdb638c56843cd",
	"family/36":                             "c50d14b2ed385e67d4d03402c10f682ec78855851a7033cf9be5e1ad8e583295",
	"family/37":                             "9bfb7ec6536d2b7d020e015fcbf02236a364d710ae8dc05a823ab0b1f663a807",
	"family/38":                             "48c866da924581e19c410f1d50f93ac75ee7542009ed2857aaa34718dcb3d519",
	"family/39":                             "39e75e3ec96706200d1ee02c29ce3be244cb420297e79969a24d7060972d3748",
}

// digestExploration renders a result canonically and hashes it: visits
// (node, method, route), the session counters, the transcript, crash
// reports, the coverage curve, collector usages and the evolved model. The
// counters are listed by name so that deleting a deprecated, always-zero
// Stats field leaves the digests intact.
func digestExploration(res *Result) string {
	h := sha256.New()
	nodes := make([]string, 0, len(res.Visits))
	byName := make(map[string]Visit, len(res.Visits))
	for n, v := range res.Visits {
		nodes = append(nodes, n.String())
		byName[n.String()] = v
	}
	sort.Strings(nodes)
	for _, name := range nodes {
		v := byName[name]
		fmt.Fprintf(h, "visit %s %s %s\n", name, v.Method, scriptString(v.Route))
	}
	s := res.Stats
	fmt.Fprintf(h, "stats cases=%d steps=%d crashes=%d replays=%d reflect=%d/%d forced=%d fills=%d\n",
		s.TestCases, s.Steps, s.Crashes, s.Replays, s.ReflectionAttempts, s.ReflectionFailures,
		s.ForcedStarts, s.InputFills)
	for _, line := range res.Transcript {
		fmt.Fprintf(h, "log %s\n", line)
	}
	for _, cr := range res.CrashReports {
		fmt.Fprintf(h, "crash %q %s\n", cr.Reason, scriptString(cr.Route))
	}
	for _, p := range res.Curve {
		fmt.Fprintf(h, "curve %d %d %d\n", p.TestCase, p.Activities, p.Fragments)
	}
	for _, u := range res.Collector.Usages() {
		fmt.Fprintf(h, "api %s %v %v %d %s\n", u.API, u.ByActivity, u.ByFragment, u.Count,
			strings.Join(u.Classes, ","))
	}
	for _, e := range res.Model.Edges() {
		fmt.Fprintf(h, "edge %d %s %s %s\n", e.Kind, e.From, e.To, e.Via)
	}
	for _, n := range res.Model.Nodes() {
		fmt.Fprintf(h, "node %s visited=%v\n", n, res.Model.Visited(n))
	}
	_, _ = io.WriteString(h, "end\n")
	return hex.EncodeToString(h.Sum(nil))
}

func scriptString(s robotium.Script) string {
	ops := make([]string, len(s.Ops))
	for i, op := range s.Ops {
		ops[i] = op.String()
	}
	return s.Name + "[" + strings.Join(ops, "; ") + "]"
}

// digestCase is one pinned exploration: an app spec and its configuration.
type digestCase struct {
	name string
	spec *corpus.AppSpec
	cfg  Config
}

func digestCases() []digestCase {
	var cases []digestCase
	for _, row := range corpus.PaperRows() {
		cfg := DefaultConfig()
		cfg.MaxTestCases = 4000 // the Table I evaluation budget
		cases = append(cases, digestCase{"table1/" + row.Package, corpus.PaperSpec(row), cfg})
	}
	cases = append(cases, digestCase{"demo", corpus.DemoSpec(), fullConfig()})
	fam := corpus.NewFamily(40, 1)
	for i := 0; i < fam.Len(); i++ {
		cfg := DefaultConfig()
		cfg.MaxTestCases = 2000 // the fragdroid -max-cases default
		cases = append(cases, digestCase{fmt.Sprintf("family/%02d", i), fam.At(i), cfg})
	}
	return cases
}

// TestExplorationDigests pins exploration output byte for byte on 56 apps,
// well beyond the three golden parity fixtures. Each run is traced, since a
// run keeps its transcript only while an Observer is attached.
func TestExplorationDigests(t *testing.T) {
	for _, c := range digestCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			app, err := corpus.BuildApp(c.spec)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			c.cfg.Observer = &session.TraceBuffer{}
			res, err := Explore(app, c.cfg)
			if err != nil {
				t.Fatalf("explore: %v", err)
			}
			got := digestExploration(res)
			if want := explorationDigests[c.name]; got != want {
				t.Errorf("exploration digest %s, want %s", got, want)
			}
		})
	}
}

// TestExploreLeavesStaticModelUntouched explores one extraction of each of
// three apps from four goroutines at once. Every run derives its model from
// the extraction's, which they all share, so each run must equal a serial
// run of the same extraction, down to its digest and the DOT of its model,
// and the extraction's model must encode to the same bytes afterwards. Under
// the race detector it also checks that no run writes the shared model.
func TestExploreLeavesStaticModelUntouched(t *testing.T) {
	const runs = 4
	for _, c := range digestCases() {
		if c.name != "demo" && c.name != "table1/com.adobe.reader" && c.name != "table1/com.inditex.zara" {
			continue
		}
		c := c
		t.Run(c.name, func(t *testing.T) {
			app, err := corpus.BuildApp(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := statics.Extract(app)
			if err != nil {
				t.Fatal(err)
			}
			static := aftm.EncodeModel(ex.Model)
			explore := func() (digest, dot string, err error) {
				cfg := c.cfg
				cfg.Observer = &session.TraceBuffer{}
				res, err := ExploreExtracted(ex, cfg)
				if err != nil {
					return "", "", err
				}
				return digestExploration(res), res.Model.DOT(c.name), nil
			}
			wantDigest, wantDOT, err := explore()
			if err != nil {
				t.Fatal(err)
			}
			if wantDigest != explorationDigests[c.name] {
				t.Fatalf("serial exploration digest %s, want %s", wantDigest, explorationDigests[c.name])
			}
			var wg sync.WaitGroup
			digests, dots, errs := make([]string, runs), make([]string, runs), make([]error, runs)
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					digests[i], dots[i], errs[i] = explore()
				}(i)
			}
			wg.Wait()
			for i := 0; i < runs; i++ {
				if errs[i] != nil {
					t.Fatalf("run %d: %v", i, errs[i])
				}
				if digests[i] != wantDigest {
					t.Errorf("run %d: digest %s, want %s", i, digests[i], wantDigest)
				}
				if dots[i] != wantDOT {
					t.Errorf("run %d: the explored model differs from the serial run's:\n%s", i, dots[i])
				}
			}
			if !bytes.Equal(aftm.EncodeModel(ex.Model), static) {
				t.Error("exploring changed the extraction's static model")
			}
		})
	}
}
