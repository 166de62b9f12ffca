package apk_test

import (
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/layout"
	"fragdroid/internal/manifest"
	"fragdroid/internal/smali"
)

// builtParts is a generated app taken apart for mutation: the manifest,
// layouts and classes that apk.Assemble takes.
type builtParts struct {
	man     *manifest.Manifest
	layouts map[string]*layout.Layout
	classes map[string]*smali.Class
}

// partsOf builds spec and takes the app apart. Each call builds afresh, so
// a mutation reaches one table row only.
func partsOf(t *testing.T, spec *corpus.AppSpec) *builtParts {
	t.Helper()
	app, err := corpus.BuildApp(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := &builtParts{man: app.Manifest, layouts: app.Layouts, classes: make(map[string]*smali.Class)}
	for _, cn := range app.Program.Names() {
		p.classes[cn] = app.Program.Class(cn)
	}
	return p
}

// assemble reassembles the parts. Assemble orders layouts and classes
// itself, so map order does not reach the result.
func (p *builtParts) assemble() error {
	layouts := make([]*layout.Layout, 0, len(p.layouts))
	for _, l := range p.layouts {
		layouts = append(layouts, l)
	}
	classes := make([]*smali.Class, 0, len(p.classes))
	for _, c := range p.classes {
		classes = append(classes, c)
	}
	_, err := apk.Assemble(p.man, layouts, classes)
	return err
}

// widget returns the widget of layout l with ID ref.
func (p *builtParts) widget(t *testing.T, l, ref string) *layout.Widget {
	t.Helper()
	w := p.layouts[l].Find(ref)
	if w == nil {
		t.Fatalf("layout %s has no widget %s", l, ref)
	}
	return w
}

// body returns the body of method m of class c.
func (p *builtParts) body(t *testing.T, c, m string) []smali.Instr {
	t.Helper()
	meth := p.classes[c].Method(m)
	if meth == nil {
		t.Fatalf("class %s has no method %s", c, m)
	}
	return meth.Body
}

// addWidget appends a TextView with ID ref to layout l's root.
func (p *builtParts) addWidget(l, ref string) {
	root := p.layouts[l].Root
	root.Children = append(root.Children, &layout.Widget{Type: layout.TypeTextView, IDRef: ref})
}

// TestAssembleErrorParity breaks built demo and family apps one way each
// (two ways in the rows that mix phases) and pins the exact error Assemble
// returns: the layout rules, the class and program checks, and the bundle
// lint, in the order Assemble runs them. The rows that break nothing must
// pass: one ID in two layouts, and "@+id/x" beside "@id/x" in one layout.
func TestAssembleErrorParity(t *testing.T) {
	demo := corpus.DemoSpec
	fam := func() *corpus.AppSpec { return corpus.NewFamily(1, 1).At(0) }
	const (
		main   = "com.demo.app.Main"
		fmain  = "com.tools.fam000000.Main"
		fact1  = "com.tools.fam000000.Act1"
		ffrag0 = "com.tools.fam000000.Frag0"
	)
	cases := []struct {
		name   string
		spec   func() *corpus.AppSpec
		mutate func(t *testing.T, p *builtParts)
		want   string // "" for an app that must pass
	}{
		{"unchanged demo", demo, func(*testing.T, *builtParts) {}, ""},
		{"unchanged family member", fam, func(*testing.T, *builtParts) {}, ""},
		{"empty widget type", demo, func(t *testing.T, p *builtParts) {
			p.widget(t, "activity_main", "@id/main_title").Type = ""
		}, "layout activity_main: widget with empty type"},
		{"widget ID without a name", demo, func(t *testing.T, p *builtParts) {
			p.widget(t, "activity_main", "@id/main_title").IDRef = "@id"
		}, `layout activity_main: res: malformed reference "@id", want @kind/name`},
		{"widget ID without '@'", fam, func(t *testing.T, p *builtParts) {
			p.widget(t, "fragment_frag1", "@id/frag1_label").IDRef = "id/frag1_label"
		}, `layout fragment_frag1: res: reference "id/frag1_label" does not start with '@'`},
		{"widget ID of an unknown kind", demo, func(t *testing.T, p *builtParts) {
			p.widget(t, "fragment_vip", "@id/vip_root").IDRef = "@view/vip_root"
		}, `layout fragment_vip: res: unknown resource kind "view" in "@view/vip_root"`},
		{"duplicate ID in one layout", demo, func(t *testing.T, p *builtParts) {
			p.widget(t, "activity_main", "@id/main_btn_login").IDRef = "@id/main_btn_detail"
		}, "layout activity_main: duplicate widget id @id/main_btn_detail"},
		{"duplicate ID in a family layout", fam, func(t *testing.T, p *builtParts) {
			p.widget(t, "activity_act1", "@id/act1_container").IDRef = "@id/act1_root"
		}, "layout activity_act1: duplicate widget id @id/act1_root"},
		{"duplicate new-ID spelling in one layout", demo, func(t *testing.T, p *builtParts) {
			p.addWidget("activity_login", "@+id/login_extra")
			p.addWidget("activity_login", "@+id/login_extra")
		}, "layout activity_login: duplicate widget id @+id/login_extra"},
		{"fragment tag without class", demo, func(t *testing.T, p *builtParts) {
			p.widget(t, "activity_settings", "@id/settings_sfrag_about").FragmentClass = ""
		}, "layout activity_settings: <fragment> without class"},
		{"unknown opcode", demo, func(t *testing.T, p *builtParts) {
			p.body(t, main, "onCreate")[0].Op = "NOP"
		}, `smali: class com.demo.app.Main method onCreate: line 0: unknown opcode "NOP"`},
		{"empty opcode", fam, func(t *testing.T, p *builtParts) {
			p.body(t, ffrag0, "onCreateView")[0].Op = ""
		}, `smali: class com.tools.fam000000.Frag0 method onCreateView: line 0: unknown opcode ""`},
		{"wrong operand count", demo, func(t *testing.T, p *builtParts) {
			in := &p.body(t, main, "onCreate")[0]
			in.Args = append(in.Args, "@layout/activity_detail")
		}, "smali: class com.demo.app.Main method onCreate: line 0: set-content-view wants 1 operands, got 2"},
		{"operands on a no-operand opcode", fam, func(t *testing.T, p *builtParts) {
			p.body(t, fmain, "onGoAct1")[1].Args = []string{"x"}
		}, "smali: class com.tools.fam000000.Main method onGoAct1: line 0: start-activity wants 0 operands, got 1"},
		{"non-class type operand", demo, func(t *testing.T, p *builtParts) {
			p.body(t, main, "onGoDetail")[0].Args[1] = "123"
		}, `smali: class com.demo.app.Main method onGoDetail: line 0: new-intent operand 2: "123" is not a class`},
		{"non-reference resource operand", fam, func(t *testing.T, p *builtParts) {
			p.body(t, fact1, "onShowFrag2")[2].Args[0] = "act1_container"
		}, `smali: class com.tools.fam000000.Act1 method onShowFrag2: line 0: txn-replace operand 1: "act1_container" is not a resource reference`},
		{"duplicate method", demo, func(t *testing.T, p *builtParts) {
			c := p.classes[main]
			c.Methods = append(c.Methods, &smali.Method{Name: "onGoDetail"})
		}, "smali: class com.demo.app.Main: duplicate method onGoDetail"},
		{"unknown referenced class", demo, func(t *testing.T, p *builtParts) {
			p.body(t, "com.demo.app.Settings", "onCreate")[2].Args[0] = "com.demo.app.Nobody"
		}, "smali: class com.demo.app.Settings references unknown class com.demo.app.Nobody"},
		{"unknown superclass", fam, func(t *testing.T, p *builtParts) {
			p.classes[ffrag0].Super = "com.tools.fam000000.Base"
		}, "smali: class com.tools.fam000000.Frag0 extends unknown class com.tools.fam000000.Base"},
		{"unresolved widget ref", demo, func(t *testing.T, p *builtParts) {
			p.body(t, main, "onCreate")[1].Args[0] = "@id/nope"
		}, `apk: com.demo.app.Main.onCreate line 0: res: unresolved resource reference "@id/nope"`},
		{"unresolved new-ID widget ref", fam, func(t *testing.T, p *builtParts) {
			p.body(t, fact1, "onCreate")[1].Args[0] = "@+id/act1_nope"
		}, `apk: com.tools.fam000000.Act1.onCreate line 0: res: unresolved resource reference "@id/act1_nope"`},
		{"missing layout", demo, func(t *testing.T, p *builtParts) {
			p.body(t, "com.demo.app.Account", "onCreate")[1].Args[0] = "@layout/activity_nope"
		}, "apk: com.demo.app.Account.onCreate line 0: unknown layout @layout/activity_nope"},
		{"transaction target not a Fragment", fam, func(t *testing.T, p *builtParts) {
			p.body(t, fmain, "onCreate")[3].Args[1] = fact1
		}, "apk: com.tools.fam000000.Main.onCreate line 0: txn-add target com.tools.fam000000.Act1 is not a Fragment subclass"},
		{"manifest activity with no class", fam, func(t *testing.T, p *builtParts) {
			acts := &p.man.Application.Activities
			*acts = append(*acts, manifest.Activity{Name: "com.tools.fam000000.Act9"})
		}, "apk: manifest activity com.tools.fam000000.Act9 has no class"},
		{"manifest activity that is a Fragment", demo, func(t *testing.T, p *builtParts) {
			acts := &p.man.Application.Activities
			*acts = append(*acts, manifest.Activity{Name: "com.demo.app.Home"})
		}, "apk: manifest activity com.demo.app.Home does not extend Activity"},
		{"layout error before class error", demo, func(t *testing.T, p *builtParts) {
			p.body(t, "com.demo.app.About", "onCreateView")[0].Op = "NOP"
			p.widget(t, "fragment_vip", "@id/vip_label").Type = ""
		}, "layout fragment_vip: widget with empty type"},
		{"class check before program check", fam, func(t *testing.T, p *builtParts) {
			p.body(t, fact1, "onCreate")[2].Op = smali.OpNewInstance
			p.body(t, fact1, "onCreate")[2].Args = []string{"com.tools.fam000000.Nobody"}
			c := p.classes[fmain]
			c.Methods = append(c.Methods, &smali.Method{Name: "onGoAct1"})
		}, "smali: class com.tools.fam000000.Main: duplicate method onGoAct1"},
		{"program check before lint", fam, func(t *testing.T, p *builtParts) {
			p.body(t, fact1, "onCreate")[1].Args[0] = "@id/act1_nope"
			p.body(t, fmain, "onGoAct1")[0].Args[1] = "com.tools.fam000000.Act9"
		}, "smali: class com.tools.fam000000.Main references unknown class com.tools.fam000000.Act9"},
		{"manifest lint before code lint", demo, func(t *testing.T, p *builtParts) {
			p.body(t, main, "onCreate")[1].Args[0] = "@id/nope"
			acts := &p.man.Application.Activities
			*acts = append(*acts, manifest.Activity{Name: "com.demo.app.Nobody"})
		}, "apk: manifest activity com.demo.app.Nobody has no class"},
		{"one ID in two layouts", demo, func(t *testing.T, p *builtParts) {
			p.widget(t, "fragment_home", "@id/home_label").IDRef = "@id/main_title"
		}, ""},
		{"one ID in two family layouts", fam, func(t *testing.T, p *builtParts) {
			p.addWidget("fragment_frag2", "@id/main_title")
			p.addWidget("fragment_frag0", "@id/main_title")
		}, ""},
		{"new-ID spelling beside the plain one", demo, func(t *testing.T, p *builtParts) {
			p.addWidget("activity_main", "@+id/main_title")
		}, ""},
		{"code ref resolved by a new-ID spelling", fam, func(t *testing.T, p *builtParts) {
			p.widget(t, "activity_act1", "@id/act1_tab_frag2").IDRef = "@+id/act1_tab_frag2"
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := partsOf(t, tc.spec())
			tc.mutate(t, p)
			err := p.assemble()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("Assemble: %v, want no error", err)
			case tc.want != "" && err == nil:
				t.Fatalf("Assemble passed, want %q", tc.want)
			case tc.want != "" && err.Error() != tc.want:
				t.Fatalf("Assemble: %q\nwant %q", err, tc.want)
			}
		})
	}
}
