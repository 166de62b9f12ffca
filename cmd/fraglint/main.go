// Command fraglint runs the static diagnostics engine over application
// packages: the whole-program call graph, the reachability fixpoints and the
// FL001–FL012 analyzers, without ever starting a device.
//
// Usage:
//
//	fraglint demo                       # lint one built-in app
//	fraglint ./myapp.sapk com.ebay.mobile
//	fraglint -builtin                   # lint every built-in corpus app
//	fraglint -study -parallel 8         # lint the 217-app dataset study
//	fraglint -severity error -json demo
//
// -list, -study and -builtin each pick a run; without one, fraglint lints the
// apps named as arguments (demo if none). A flag the selected run never
// reads is an error, and so are two flags that pick different runs and app
// arguments given to a run that picks its own apps: -json goes only with
// app linting, -seed and -parallel only with -study, and -severity and
// -cache with every run but -list. -parallel must be at least 1.
//
// Exit codes: 0 clean at the chosen severity (or -h), 1 worst finding is a
// warning, 2 worst finding is an error, 3 operational failure (bad flag,
// unreadable app).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/lint"
	"fragdroid/internal/report"
	"fragdroid/internal/statics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fraglint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit the diagnostics as a JSON array")
		minSev   = fs.String("severity", "info", "report findings at or above this severity (info, warning, error)")
		builtin  = fs.Bool("builtin", false, "lint every built-in corpus app (demo + the Table I corpus)")
		study    = fs.Bool("study", false, "lint the 217-app dataset study and print the summary")
		seed     = fs.Int64("seed", 1, "dataset variant for -study")
		parallel = fs.Int("parallel", 1, "apps analyzed concurrently in -study mode")
		list     = fs.Bool("list", false, "list built-in corpus apps and exit")
		cacheDir = fs.String("cache", "auto", "persistent artifact store: auto, off, or a directory")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 3
	}
	// The first of these that is set picks the run; without one, fraglint
	// lints the named apps.
	mode := "apps"
	switch {
	case *list:
		mode = "list"
	case *study:
		mode = "study"
	case *builtin:
		mode = "builtin"
	}
	if err := checkFlags(fs, mode, *parallel); err != nil {
		fmt.Fprintln(stderr, "fraglint:", err)
		return 3
	}
	if *list {
		fmt.Fprintln(stdout, "built-in corpus apps:")
		fmt.Fprintln(stdout, "  demo")
		for _, row := range corpus.PaperRows() {
			fmt.Fprintf(stdout, "  %s\n", row.Package)
		}
		return 0
	}
	dir, err := artifact.ResolveDir(*cacheDir)
	if err != nil {
		fmt.Fprintln(stderr, "fraglint:", err)
		return 3
	}
	cache, err := artifact.NewPersistentCache(dir)
	if err != nil {
		fmt.Fprintln(stderr, "fraglint:", err)
		return 3
	}
	min, err := lint.ParseSeverity(*minSev)
	if err != nil {
		fmt.Fprintln(stderr, "fraglint:", err)
		return 3
	}
	if *study {
		s, err := report.RunLintStudy(report.StudyConfig{Seed: *seed, Parallel: *parallel, Cache: cache})
		if err != nil {
			fmt.Fprintln(stderr, "fraglint:", err)
			return 3
		}
		fmt.Fprint(stdout, report.RenderLintStudy(s))
		return exitCode(s.Worst, min)
	}

	targets := fs.Args()
	if *builtin {
		targets = append([]string{"demo"}, packageNames()...)
	}
	if len(targets) == 0 {
		targets = []string{"demo"}
	}

	var all []lint.Diagnostic
	for _, target := range targets {
		ex, err := loadExtraction(cache, target)
		if err != nil {
			fmt.Fprintf(stderr, "fraglint: %s: %v\n", target, err)
			return 3
		}
		all = append(all, lint.Filter(lint.Run(ex), min)...)
	}

	if *jsonOut {
		if all == nil {
			all = []lint.Diagnostic{}
		}
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "fraglint:", err)
			return 3
		}
		fmt.Fprintln(stdout, string(data))
		return exitCode(lint.MaxSeverity(all), min)
	}

	for _, d := range all {
		fmt.Fprintf(stdout, "%s: %s\n", d.App, d)
	}
	errors, warnings := 0, 0
	for _, d := range all {
		switch d.Severity {
		case lint.SeverityError:
			errors++
		case lint.SeverityWarning:
			warnings++
		}
	}
	if len(all) == 0 {
		fmt.Fprintf(stdout, "fraglint: clean (%d apps at severity >= %s)\n", len(targets), min)
	} else {
		fmt.Fprintf(stdout, "fraglint: %d findings (%d errors, %d warnings) in %d apps\n",
			len(all), errors, warnings, len(targets))
	}
	return exitCode(lint.MaxSeverity(all), min)
}

// checkFlags rejects a -parallel below 1, any set flag that mode's run never
// reads, two flags that pick different runs, and app arguments to a run
// that picks its own apps. -severity and -cache go with every run but -list.
func checkFlags(fs *flag.FlagSet, mode string, parallel int) error {
	if parallel < 1 {
		return fmt.Errorf("-parallel must be at least 1, got %d", parallel)
	}
	readers := map[string][]string{
		"list":     {"list"},
		"study":    {"study"},
		"builtin":  {"builtin"},
		"json":     {"apps", "builtin"},
		"severity": {"apps", "builtin", "study"},
		"cache":    {"apps", "builtin", "study"},
		"seed":     {"study"},
		"parallel": {"study"},
	}
	var unread error
	fs.Visit(func(f *flag.Flag) {
		modes, ok := readers[f.Name]
		if unread != nil || !ok || slices.Contains(modes, mode) {
			return
		}
		if slices.Contains(modes, f.Name) { // the flag picks a run of its own
			unread = fmt.Errorf("-%s and %s pick different runs", f.Name, runName(mode))
			return
		}
		needs := make([]string, len(modes))
		for i, m := range modes {
			needs[i] = runName(m)
		}
		unread = fmt.Errorf("-%s needs %s, not %s", f.Name, strings.Join(needs, " or "), runName(mode))
	})
	if unread == nil && mode != "apps" && fs.NArg() > 0 {
		unread = fmt.Errorf("-%s takes no app arguments, got %s", mode, strings.Join(fs.Args(), " "))
	}
	return unread
}

// runName names a kind of run in a flag error: the flag that picks it, or
// linting the apps named as arguments.
func runName(mode string) string {
	if mode == "apps" {
		return "named apps"
	}
	return "-" + mode
}

// exitCode grades the run: the worst reported severity picks the code, and
// findings below the reporting threshold never fail the run.
func exitCode(worst, min lint.Severity) int {
	if worst < min {
		return 0
	}
	switch worst {
	case lint.SeverityError:
		return 2
	case lint.SeverityWarning:
		return 1
	}
	return 0
}

func packageNames() []string {
	var out []string
	for _, row := range corpus.PaperRows() {
		out = append(out, row.Package)
	}
	return out
}

// loadExtraction resolves an app argument exactly like cmd/fragdroid — a
// .sapk path, the demo app, or a built-in corpus package — and returns its
// static extraction, via the artifact cache for spec-built corpus apps.
func loadExtraction(cache *artifact.Cache, arg string) (*statics.Extraction, error) {
	if strings.HasSuffix(arg, ".sapk") {
		data, err := os.ReadFile(arg)
		if err != nil {
			return nil, err
		}
		app, err := apk.LoadBytes(data)
		if err != nil {
			return nil, err
		}
		return statics.Extract(app)
	}
	var spec *corpus.AppSpec
	if arg == "demo" || arg == "com.demo.app" {
		spec = corpus.DemoSpec()
	} else {
		for _, row := range corpus.PaperRows() {
			if row.Package == arg {
				spec = corpus.PaperSpec(row)
				break
			}
		}
	}
	if spec == nil {
		return nil, fmt.Errorf("unknown app %q (try -list)", arg)
	}
	return cache.Extraction(spec)
}
