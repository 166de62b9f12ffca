// Command fragdroid runs the full FragDroid pipeline — static extraction and
// evolutionary UI exploration — on one synthetic application package and
// reports coverage and sensitive-API findings.
//
// Usage:
//
//	fragdroid -app com.adobe.reader            # a built-in corpus app
//	fragdroid -app ./myapp.sapk                # an app archive on disk
//	fragdroid -app demo -inputs inputs.json    # with an analyst input file
//	fragdroid -app demo -strategy biased -seed 11  # a registry strategy
//	fragdroid -app demo -target location/getProviders -directed  # path-guided
//	fragdroid -list                            # list built-in corpus apps
//
// Built-in corpus apps and their static extractions persist in the artifact
// store by default (-cache auto); a repeated run on the same app skips the
// build and static analysis. -cache takes "auto", "off", or a directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/explorer"
	"fragdroid/internal/jdcore"
	"fragdroid/internal/report"
	"fragdroid/internal/robotium"
	"fragdroid/internal/sensitive"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
	"fragdroid/internal/strategy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fragdroid:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fragdroid", flag.ContinueOnError)
	var (
		appArg       = fs.String("app", "demo", "corpus app name, package, or path to a .sapk archive")
		list         = fs.Bool("list", false, "list built-in corpus apps and exit")
		inputsPath   = fs.String("inputs", "", "filled-in input dependency JSON file")
		noReflection = fs.Bool("no-reflection", false, "disable the reflective fragment switch")
		noForced     = fs.Bool("no-forced-start", false, "disable forced empty-Intent starts")
		maxCases     = fs.Int("max-cases", 2000, "test case budget")
		stratSel     = fs.String("strategy", "explorer", "exploration strategy: "+strings.Join(strategy.Names(), ", "))
		seed         = fs.Int64("seed", 7, "RNG seed for randomized strategies (monkey, biased); deterministic ones ignore it")
		verbose      = fs.Bool("v", false, "print the exploration transcript")
		emitMeta     = fs.Bool("meta", false, "print the static-phase metadata JSON and exit")
		emitJava     = fs.Bool("java", false, "print the jd-core style Java reconstruction and exit")
		emitTests    = fs.String("emit-tests", "", "write the generated Robotium test programs (and build.xml) to this directory")
		markdown     = fs.Bool("md", false, "print a markdown report instead of the plain summary")
		curveCSV     = fs.Bool("curve", false, "append the coverage-vs-test-case curve as CSV")
		runTest      = fs.String("run-test", "", "execute a stored test-case JSON file on the app and exit")
		target       = fs.String("target", "", "targeted mode: drive the app until this sensitive API fires (e.g. location/getProviders)")
		directed     = fs.Bool("directed", false, "with -target: seed the search with lifted launcher-to-site routes (skips unreachable targets)")
		tracePath    = fs.String("trace", "", "write the structured trace events as JSON to this file (\"-\" for stdout)")
		cacheDir     = fs.String("cache", "auto", "persistent artifact store: auto, off, or a directory")
		cpuProf      = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf      = fs.String("memprofile", "", "write a heap profile to this file after the run")
		interp       = fs.String("interp", device.DefaultInterp(), "interpreter backend for app code: ir (precompiled instruction programs) or classic (tree-walking smali)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxCases < 1 {
		return fmt.Errorf("-max-cases must be at least 1, got %d", *maxCases)
	}
	// The first of these that is set picks the run.
	mode := "explore"
	switch {
	case *list:
		mode = "list"
	case *emitMeta:
		mode = "meta"
	case *emitJava:
		mode = "java"
	case *runTest != "":
		mode = "run-test"
	case *target != "":
		mode = "target"
	case *stratSel != "explorer":
		mode = "strategy"
	}
	// Each of these flags is read by the listed runs only; with any other
	// run it would exit 0 having done nothing with it. -seed is not listed:
	// as its help says, deterministic runs ignore it.
	readers := map[string][]string{
		"meta":            {"meta"},
		"java":            {"java"},
		"run-test":        {"run-test"},
		"target":          {"target"},
		"directed":        {"target"},
		"strategy":        {"strategy"},
		"emit-tests":      {"explore"},
		"md":              {"explore"},
		"no-reflection":   {"explore", "target"},
		"no-forced-start": {"explore", "target"},
		"v":               {"explore", "strategy"},
		"curve":           {"explore", "strategy"},
		"max-cases":       {"explore", "target", "strategy"},
		"inputs":          {"explore", "target", "strategy"},
		"trace":           {"explore", "target", "strategy", "run-test"},
	}
	var unread error
	fs.Visit(func(f *flag.Flag) {
		modes, ok := readers[f.Name]
		if f.Name == "strategy" && *stratSel == "explorer" {
			ok = false // the default, spelled out, picks no run
		}
		if unread != nil || !ok || slices.Contains(modes, mode) {
			return
		}
		if slices.Contains(modes, f.Name) { // the flag picks a run of its own
			unread = fmt.Errorf("-%s and %s pick different runs", f.Name, runName(mode, *stratSel))
			return
		}
		needs := make([]string, len(modes))
		for i, m := range modes {
			needs[i] = runName(m, "")
		}
		unread = fmt.Errorf("-%s needs %s, not %s", f.Name, strings.Join(needs, " or "), runName(mode, *stratSel))
	})
	if unread != nil {
		return unread
	}
	if *markdown && *verbose {
		return errors.New("-v needs the plain summary, not the -md report")
	}
	if err := device.SetDefaultInterp(*interp); err != nil {
		return err
	}
	dir, err := artifact.ResolveDir(*cacheDir)
	if err != nil {
		return err
	}
	cache, err := artifact.NewPersistentCache(dir)
	if err != nil {
		return err
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()
	if mode == "list" {
		fmt.Println("built-in corpus apps:")
		fmt.Println("  demo")
		for _, row := range corpus.PaperRows() {
			fmt.Printf("  %s\n", row.Package)
		}
		return nil
	}

	app, spec, err := loadApp(cache, *appArg)
	if err != nil {
		return err
	}
	// extract resolves the app's static extraction — through the artifact
	// cache for corpus apps (spec-keyed), directly for .sapk archives.
	extract := func() (*statics.Extraction, error) {
		if spec != nil {
			return cache.Extraction(spec)
		}
		return statics.Extract(app)
	}

	if mode == "meta" {
		ex, err := extract()
		if err != nil {
			return err
		}
		data, err := ex.MetaJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	if mode == "java" {
		jp := jdcore.Decompile(app.Program)
		for _, name := range jp.Names() {
			fmt.Println(jdcore.RenderJava(jp.Class(name)))
		}
		return nil
	}
	var trace *session.TraceBuffer
	if *tracePath != "" {
		trace = &session.TraceBuffer{}
	}

	if mode == "run-test" {
		if err := replayTest(app, *runTest, trace); err != nil {
			return err
		}
		return writeTrace(*tracePath, trace)
	}

	cfg := explorer.DefaultConfig()
	cfg.UseReflection = !*noReflection
	cfg.UseForcedStart = !*noForced
	cfg.MaxTestCases = *maxCases
	if trace != nil {
		cfg.Observer = trace
	}
	if *inputsPath != "" {
		data, err := os.ReadFile(*inputsPath)
		if err != nil {
			return err
		}
		vals, err := statics.ParseInputValues(data)
		if err != nil {
			return err
		}
		cfg.Inputs = vals
	}

	if mode == "target" {
		ex, err := extract()
		if err != nil {
			return err
		}
		explore := explorer.ExploreTarget
		if *directed {
			explore = explorer.ExploreTargetDirected
		}
		tr, err := explore(ex, cfg, *target)
		if err != nil {
			return err
		}
		printTargetResult(tr)
		return writeTrace(*tracePath, trace)
	}

	ex, err := extract()
	if err != nil {
		return err
	}
	if mode == "strategy" {
		opts := strategy.Options{
			Budget: *maxCases,
			Seed:   *seed,
			Inputs: cfg.Inputs,
			Curve:  true,
		}
		if trace != nil {
			opts.Observer = trace
		}
		out, err := strategy.Run(*stratSel, ex, opts)
		if err != nil {
			return err
		}
		printOutcome(app.Manifest.Package, out, ex, *verbose)
		if *curveCSV {
			fmt.Println("\ntest_case,activities,fragments")
			for _, p := range out.Curve {
				fmt.Printf("%d,%d,%d\n", p.TestCase, p.Activities, p.Fragments)
			}
		}
		return writeTrace(*tracePath, trace)
	}
	res, err := explorer.ExploreExtracted(ex, cfg)
	if err != nil {
		return err
	}
	if *markdown {
		fmt.Print(report.RenderAppReport(app.Manifest.Package, res))
	} else {
		printResult(app.Manifest.Package, res, *verbose)
	}
	if *emitTests != "" {
		if err := writeTestPrograms(*emitTests, app.Manifest.Package, res); err != nil {
			return err
		}
	}
	if *curveCSV {
		fmt.Println("\ntest_case,activities,fragments")
		for _, p := range res.Curve {
			fmt.Printf("%d,%d,%d\n", p.TestCase, p.Activities, p.Fragments)
		}
	}
	return writeTrace(*tracePath, trace)
}

// runName names a kind of run in a flag error: the flag that selects it, or
// the default explorer run. strat names the strategy of a -strategy run.
func runName(mode, strat string) string {
	switch mode {
	case "explore":
		return "the default explorer run"
	case "strategy":
		if strat == "" {
			return "a -strategy other than explorer"
		}
		return "-strategy " + strat
	}
	return "-" + mode
}

// writeTrace dumps the collected structured events as a JSON array; "-"
// writes to stdout. A nil buffer (no -trace flag) is a no-op.
func writeTrace(path string, buf *session.TraceBuffer) error {
	if buf == nil {
		return nil
	}
	data, err := buf.JSON()
	if err != nil {
		return err
	}
	if path == "-" {
		fmt.Println(string(data))
		return nil
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// replayTest loads a stored test-case JSON file and executes it as one
// session test case on a fresh device, reporting the landing state.
func replayTest(app *apk.App, path string, trace *session.TraceBuffer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	script, err := robotium.ParseScript(data)
	if err != nil {
		return err
	}
	opts := session.Options{AutoDismiss: true}
	if trace != nil {
		// Assign only a non-nil buffer: a nil *TraceBuffer in the interface
		// field would read as an attached observer.
		opts.Observer = trace
	}
	s := session.New(app, opts)
	d, res, _ := s.RunScript(script, session.PurposeProbe)
	fmt.Printf("executed %d/%d ops\n", res.Executed, len(script.Ops))
	if res.Err != nil {
		return fmt.Errorf("test failed at %q: %w", res.FailedOp, res.Err)
	}
	dump, err := d.Dump()
	if err != nil {
		return err
	}
	fmt.Printf("landed on %s", dump.Activity)
	if len(dump.FMFragments) > 0 {
		fmt.Printf(" with fragments %s", strings.Join(dump.FMFragments, ", "))
	}
	fmt.Println()
	return nil
}

// writeTestPrograms dumps the generated Robotium test programs (both the
// Java render and the replayable JSON) plus an Ant build file, mirroring the
// paper's packaging step.
func writeTestPrograms(dir, pkg string, res *explorer.Result) error {
	src := filepath.Join(dir, "src")
	if err := os.MkdirAll(src, 0o755); err != nil {
		return err
	}
	programs := res.TestPrograms()
	for _, p := range programs {
		if err := os.WriteFile(filepath.Join(src, p.Name+".java"), []byte(p.Java), 0o644); err != nil {
			return err
		}
		data, err := json.MarshalIndent(p.Script, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(src, p.Name+".json"), data, 0o644); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "build.xml"),
		[]byte(explorer.BuildXML(pkg, programs)), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %d test programs and build.xml to %s\n", len(programs), dir)
	return nil
}

// loadApp resolves the -app argument to a loaded bundle. Built-in corpus
// apps come back with their generating spec and flow through the artifact
// cache; archives on disk are parsed directly (spec is nil).
func loadApp(cache *artifact.Cache, arg string) (*apk.App, *corpus.AppSpec, error) {
	if strings.HasSuffix(arg, ".sapk") {
		data, err := os.ReadFile(arg)
		if err != nil {
			return nil, nil, err
		}
		app, err := apk.LoadBytes(data)
		return app, nil, err
	}
	spec := corpusSpec(arg)
	if spec == nil {
		return nil, nil, fmt.Errorf("unknown app %q (try -list)", arg)
	}
	app, err := cache.App(spec)
	return app, spec, err
}

// corpusSpec returns the generating spec of the built-in corpus app named
// by arg, or nil if there is none.
func corpusSpec(arg string) *corpus.AppSpec {
	if arg == "demo" || arg == "com.demo.app" {
		return corpus.DemoSpec()
	}
	for _, row := range corpus.PaperRows() {
		if row.Package == arg {
			return corpus.PaperSpec(row)
		}
	}
	return nil
}

// startProfiles starts CPU profiling and arranges a heap snapshot, per the
// -cpuprofile/-memprofile flags; the returned stop function finalizes both.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush unreachable allocations out of the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
}

// printOutcome summarizes a registry-strategy run: the engine-independent
// coverage, work and sensitive-API findings.
func printOutcome(pkg string, out *session.Outcome, ex *statics.Extraction, verbose bool) {
	va, sa := len(out.VisitedActivities), len(ex.EffectiveActivities)
	vf, sf := len(out.VisitedFragments), len(ex.EffectiveFragments)
	fmt.Printf("package: %s\n", pkg)
	fmt.Printf("strategy: %s\n", out.Strategy)
	fmt.Printf("activities: %d/%d visited (%.2f%%)\n", va, sa, pct(va, sa))
	fmt.Printf("fragments:  %d/%d visited (%.2f%%)\n", vf, sf, pct(vf, sf))
	fmt.Printf("test cases: %d   device steps: %d   crashes: %d\n",
		out.Stats.TestCases, out.Stats.Steps, out.Stats.Crashes)
	if us := out.Collector.Usages(); len(us) > 0 {
		fmt.Println("\nsensitive APIs:")
		for _, u := range us {
			fmt.Printf("  [%s] %-48s %s\n", u.Mark().ASCII(), u.API, strings.Join(u.Classes, ", "))
		}
	}
	if verbose {
		fmt.Println("\ntranscript:")
		for _, line := range out.Transcript {
			fmt.Println("  " + line)
		}
	}
}

func printResult(pkg string, res *explorer.Result, verbose bool) {
	ex := res.Extraction
	va, sa := len(res.VisitedActivities()), len(ex.EffectiveActivities)
	vf, sf := len(res.VisitedFragments()), len(ex.EffectiveFragments)
	fv, fsum := res.FragmentsInVisitedActivities()
	fmt.Printf("package: %s\n", pkg)
	fmt.Printf("activities: %d/%d visited (%.2f%%)\n", va, sa, pct(va, sa))
	fmt.Printf("fragments:  %d/%d visited (%.2f%%)\n", vf, sf, pct(vf, sf))
	fmt.Printf("fragments in visited activities: %d/%d (%.2f%%)\n", fv, fsum, pct(fv, fsum))
	fmt.Printf("test cases: %d   device steps: %d   crashes: %d\n",
		res.TestCases, res.Steps, res.Crashes)

	fmt.Println("\nvisits:")
	for _, n := range res.Model.Nodes() {
		v, ok := res.Visits[n]
		if !ok {
			continue
		}
		fmt.Printf("  %-60s via %-12s (%d ops)\n", n.String(), v.Method, len(v.Route.Ops))
	}

	if len(res.CrashReports) > 0 {
		fmt.Println("\ncrashes found:")
		for _, cr := range res.CrashReports {
			fmt.Printf("  %s (%d ops to reproduce)\n", cr.Reason, len(cr.Route.Ops))
		}
	}

	us := res.Collector.Usages()
	if len(us) > 0 {
		fmt.Println("\nsensitive APIs:")
		for _, u := range us {
			fmt.Printf("  [%s] %-48s %s\n", u.Mark().ASCII(), u.API, strings.Join(u.Classes, ", "))
		}
	}

	var declared []string
	for _, p := range res.Extraction.App.Manifest.Permissions {
		declared = append(declared, p.Name)
	}
	if findings := sensitive.AuditPermissions(declared, us); len(findings) > 0 {
		fmt.Println("\npermission findings (API invoked without declared permission):")
		for _, f := range findings {
			fmt.Printf("  %s by %s — missing %s\n",
				f.API, strings.Join(f.Classes, ", "), strings.Join(f.Missing, ", "))
		}
	}
	if verbose {
		fmt.Println("\ntranscript:")
		for _, line := range res.Transcript {
			fmt.Println("  " + line)
		}
	}
}

func printTargetResult(tr *explorer.TargetResult) {
	fmt.Printf("target API: %s\n", tr.API)
	if len(tr.Plans) == 0 {
		fmt.Println("no static sites found — the app never calls this API")
		return
	}
	fmt.Println("static sites and AFTM paths:")
	for _, p := range tr.Plans {
		fmt.Printf("  %s\n", p.Site)
		if p.Path == nil {
			fmt.Println("    (statically unreachable from the entry)")
			continue
		}
		for _, e := range p.Path {
			fmt.Printf("    %s\n", e)
		}
	}
	if len(tr.SitePlans) > 0 {
		fmt.Println("lifted launcher-to-site routes:")
		for i := range tr.SitePlans {
			sp := &tr.SitePlans[i]
			fmt.Printf("  %s in %s:\n", sp.Target.API, sp.Target.Class)
			for _, r := range sp.Routes {
				fmt.Printf("    route %s: %d ops (path cost %d)\n", r.Script.Name, len(r.Script.Ops), r.Path.Cost)
			}
			if !sp.Liftable() {
				if b, ok := sp.Blocking(); ok {
					fmt.Printf("    UNLIFTABLE: %s\n", b)
				}
			}
		}
		if tr.Seeded > 0 {
			fmt.Printf("seeded %d routes before frontier exploration\n", tr.Seeded)
		}
	}
	if tr.Skipped {
		fmt.Println("SKIPPED: statically unreachable or every path unliftable — dynamic search not attempted")
		return
	}
	if !tr.Triggered {
		fmt.Printf("NOT TRIGGERED after %d test cases\n", tr.Result.TestCases)
		return
	}
	fmt.Printf("TRIGGERED after %d test cases\n", tr.Result.TestCases)
	if u := findUsage(tr); u != nil {
		fmt.Printf("invoked by: %s\n", strings.Join(u.Classes, ", "))
	}
}

func findUsage(tr *explorer.TargetResult) *sensitive.Usage {
	for _, u := range tr.Result.Collector.Usages() {
		if u.API == tr.API {
			return &u
		}
	}
	return nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
