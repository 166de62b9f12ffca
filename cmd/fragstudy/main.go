// Command fragstudy runs the §VII-A dataset study: scan the 217-app corpus
// for Fragment usage and report the share (paper: "nearly 91%"). It also
// regenerates the evaluation tables when asked.
//
// Usage:
//
//	fragstudy                   # the 217-app fragment-usage study
//	fragstudy -parallel 8       # same study, 8 apps analyzed concurrently
//	fragstudy -corpus family -n 10000 -stream  # corpus-scale study + throughput line
//	fragstudy -table1           # the Table I coverage run (15 apps)
//	fragstudy -table2           # the Table II sensitive-operations matrix
//	fragstudy -baselines        # FragDroid vs Activity-level MBT vs Monkey
//	fragstudy -compare explorer,monkey,biased  # the strategy bake-off
//	fragstudy -ceiling          # static reachability ceiling vs dynamic visits
//	fragstudy -directed         # gap classification + directed-vs-undirected study
//	fragstudy -directed -directedjson BENCH_PR8.json  # + the JSON bench summary
//	fragstudy -lint             # fraglint across the 217-app dataset
//	fragstudy -table1 -metrics  # + the per-app session counter table
//	fragstudy -table1 -trace t.json  # dump the structured event trace
//	fragstudy -cache off        # disable the persistent artifact store
//
// -compare takes a comma-separated list of strategy names ("all" for every
// registered one) and renders per-strategy coverage-vs-budget with mean and
// variance over -seeds seeds; -budget bounds each run and -comparejson also
// writes the result as JSON. -strategy reruns the table evaluations under a
// different registered engine (Table II and -metrics work for any strategy;
// Table I, -gap and -ceiling are explorer-only).
//
// -corpus selects the dataset corpus behind the default study and -lint:
// "study" is the paper's 217-app dataset, "family" a generated app family of
// -n members (deterministic in -seed). Every corpus run keeps at most
// max(2·parallel, 4) apps in flight, folds them in dataset order and
// releases each app from memory once it has folded, so peak heap is
// O(window), not O(corpus). -stream makes the default study also print its
// streamed: throughput line. -trace is written only by the evaluation
// tables, -directed and -baselines.
//
// A flag the selected run never reads is an error, and so are two flags that
// pick different runs (-table1, -table2, -gap and -ceiling pick one run
// together). -parallel, -seeds, -budget and -n must be at least 1.
//
// -parallel defaults to the machine's CPU count. It
// bounds the apps analyzed at once in the study, -lint, the evaluation
// tables and -compare; -baselines' two baseline systems and -directed's
// target study run one app at a time. Results are deterministic and
// identical to a sequential run.
//
// By default built apps and static extractions persist in a content-addressed
// store (FRAGDROID_CACHE, else the user cache dir), so a second run skips
// all builds and static analysis. -cache takes "auto", "off", or a directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/report"
	"fragdroid/internal/session"
	"fragdroid/internal/strategy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fragstudy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fragstudy", flag.ContinueOnError)
	var (
		seed      = fs.Int64("seed", 1, "study corpus seed")
		parallel  = fs.Int("parallel", runtime.NumCPU(), "number of apps analyzed concurrently")
		corpusSel = fs.String("corpus", "study", "dataset corpus for the default study and -lint: study (217 apps) or family (generated, -n apps)")
		famN      = fs.Int("n", 10000, "family corpus size (with -corpus family)")
		stream    = fs.Bool("stream", false, "with the default study: also print the streamed: throughput line")
		table1    = fs.Bool("table1", false, "run the Table I coverage evaluation")
		table2    = fs.Bool("table2", false, "run the Table II sensitive-operations evaluation")
		baselns   = fs.Bool("baselines", false, "run the FragDroid vs Activity-level MBT vs Monkey comparison")
		compare   = fs.String("compare", "", "run the strategy bake-off over this comma-separated strategy list (\"all\" for every registered strategy)")
		cmpJSON   = fs.String("comparejson", "", "with -compare: also write the bake-off result as JSON to this file")
		budget    = fs.Int("budget", 400, "with -compare: full per-run budget (test cases / events)")
		seeds     = fs.Int("seeds", 3, "with -compare: number of seeds per strategy (base seed is -seed)")
		stratSel  = fs.String("strategy", "explorer", "exploration strategy driving the table evaluations (see internal/strategy)")
		gap       = fs.Bool("gap", false, "run the static-vs-dynamic sensitive-site comparison")
		ceiling   = fs.Bool("ceiling", false, "run the static reachability ceiling vs dynamic confirmation table")
		directed  = fs.Bool("directed", false, "run the directed-vs-undirected targeted study and the gap classification")
		dirJSON   = fs.String("directedjson", "", "with -directed: also write the bench summary as JSON to this file")
		lintRun   = fs.Bool("lint", false, "run fraglint across the dataset and print the summary")
		metrics   = fs.Bool("metrics", false, "with -table1/-table2: also print the per-app run-metrics table")
		trace     = fs.String("trace", "", "write the structured trace events of evaluation runs as JSON to this file (\"-\" for stdout)")
		cacheDir  = fs.String("cache", "auto", "persistent artifact store: auto, off, or a directory")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile to this file after the run")
		interp    = fs.String("interp", device.DefaultInterp(), "interpreter backend for app code: ir (precompiled instruction programs) or classic (tree-walking smali)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		val  int
	}{{"parallel", *parallel}, {"seeds", *seeds}, {"budget", *budget}, {"n", *famN}} {
		if f.val < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", f.name, f.val)
		}
	}
	// These flags pick the run; the reader check below rejects two that pick
	// different runs.
	mode := "study"
	switch {
	case *lintRun:
		mode = "lint"
	case *table1 || *table2 || *gap || *ceiling:
		mode = "tables"
	case *directed:
		mode = "directed"
	case *baselns:
		mode = "baselines"
	case *compare != "":
		mode = "compare"
	}
	// Each of these flags is read by the listed runs only; with any other run
	// it would exit 0 having done nothing with it. A run-picking flag (picks)
	// reads only the run it picks, so two that pick different runs are an
	// error. Every other flag (-seed, -parallel, -cache, -interp and the
	// profile flags) goes with every run, and so does -strategy explorer, the
	// default spelled out.
	readers := map[string][]string{
		"lint":         {"lint"},
		"table1":       {"tables"},
		"table2":       {"tables"},
		"gap":          {"tables"},
		"ceiling":      {"tables"},
		"directed":     {"directed"},
		"baselines":    {"baselines"},
		"compare":      {"compare"},
		"strategy":     {"tables"},
		"metrics":      {"tables"},
		"trace":        {"tables", "directed", "baselines"},
		"directedjson": {"directed"},
		"comparejson":  {"compare"},
		"budget":       {"compare"},
		"seeds":        {"compare"},
		"corpus":       {"study", "lint"},
		"n":            {"study", "lint"},
		"stream":       {"study"},
	}
	picks := []string{"lint", "table1", "table2", "gap", "ceiling", "directed", "baselines", "compare"}
	var unread error
	fs.Visit(func(f *flag.Flag) {
		runs, ok := readers[f.Name]
		if unread != nil || !ok || (f.Name == "strategy" && *stratSel == "explorer") {
			return
		}
		switch {
		case slices.Contains(runs, mode):
			if f.Name == "n" && *corpusSel != "family" {
				unread = errors.New("-n needs -corpus family")
			}
		case slices.Contains(picks, f.Name):
			unread = fmt.Errorf("-%s and %s pick different runs", f.Name, runName(mode))
		default:
			needs := make([]string, len(runs))
			for i, m := range runs {
				needs[i] = runName(m)
			}
			unread = fmt.Errorf("-%s needs %s, not %s", f.Name, strings.Join(needs, " or "), runName(mode))
		}
	})
	if unread != nil {
		return unread
	}
	if err := device.SetDefaultInterp(*interp); err != nil {
		return err
	}
	cache, err := openCache(*cacheDir)
	if err != nil {
		return err
	}
	// The study configuration shared by the default study and -lint; -corpus
	// family swaps the 217-app dataset for a lazy generated source.
	scfg := report.StudyConfig{Seed: *seed, Parallel: *parallel, Cache: cache}
	switch *corpusSel {
	case "study":
	case "family":
		scfg.Source = corpus.NewFamily(*famN, *seed)
	default:
		return fmt.Errorf("unknown corpus %q (want study or family)", *corpusSel)
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	cfg := report.DefaultEvalConfig()
	cfg.Strategy = *stratSel
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	cfg.Cache = cache
	var buf *session.TraceBuffer
	if *trace != "" {
		// One thread-safe buffer sinks the whole (possibly parallel) corpus
		// run; events carry the app package for demultiplexing.
		buf = &session.TraceBuffer{}
		cfg.Explorer.Observer = buf
	}

	switch mode {
	case "lint":
		s, err := report.RunLintStudy(scfg)
		if err != nil {
			return err
		}
		fmt.Println(report.RenderLintStudy(s))
		return nil
	case "tables":
		if cfg.Strategy != "explorer" && (*table1 || *gap || *ceiling) {
			return fmt.Errorf("-table1, -gap and -ceiling are explorer-only (got -strategy %s); use -compare for cross-strategy coverage", cfg.Strategy)
		}
		ev, err := report.RunEvaluation(cfg)
		if err != nil {
			return err
		}
		if *table1 {
			fmt.Println(report.RenderTable1(ev.BuildTable1()))
		}
		if *table2 {
			fmt.Println(report.RenderTable2(ev.BuildTable2()))
		}
		if *gap {
			fmt.Println(report.RenderGap(ev.StaticDynamicGap()))
		}
		if *ceiling {
			fmt.Println(report.RenderCeiling(ev.BuildCeiling()))
		}
		if *metrics {
			fmt.Println(report.RenderRunMetrics(ev))
		}
		return writeTrace(*trace, buf)
	case "directed":
		ev, err := report.RunEvaluation(cfg)
		if err != nil {
			return err
		}
		gc := ev.BuildGapClassification()
		fmt.Println(report.RenderGapClassification(gc))
		study, err := report.RunDirectedStudy(cfg, []int64{*seed, *seed + 1, *seed + 2})
		if err != nil {
			return err
		}
		fmt.Println(report.RenderDirectedStudy(study))
		if *dirJSON != "" {
			data, err := json.MarshalIndent(report.BuildDirectedBench(study, gc), "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(*dirJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		return writeTrace(*trace, buf)
	case "baselines":
		cmp, err := report.RunComparison(cfg, 7, 1500)
		if err != nil {
			return err
		}
		fmt.Println(report.RenderComparison(cmp))
		return writeTrace(*trace, buf)
	case "compare":
		list := *compare
		if list == "all" {
			list = strings.Join(strategy.Names(), ",")
		}
		names, err := strategy.ParseList(list)
		if err != nil {
			return err
		}
		bo, err := report.RunBakeoff(report.BakeoffConfig{
			Strategies: names,
			Budget:     *budget,
			Seeds:      *seeds,
			BaseSeed:   *seed,
			Parallel:   *parallel,
			Cache:      cache,
		})
		if err != nil {
			return err
		}
		fmt.Println(report.RenderBakeoff(bo))
		if *cmpJSON != "" {
			data, err := bo.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*cmpJSON, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		return nil
	}

	if *stream {
		res, st, err := report.RunStudyStreamed(scfg)
		if err != nil {
			return err
		}
		fmt.Println(report.RenderStudy(res))
		fmt.Println(report.RenderStreamStats(st))
		return nil
	}
	res, err := report.RunStudyWith(scfg)
	if err != nil {
		return err
	}
	fmt.Println(report.RenderStudy(res))
	return nil
}

// runName names a kind of run in a flag error: the flag that selects it, or
// the default study.
func runName(mode string) string {
	switch mode {
	case "study":
		return "the default study"
	case "tables":
		return "a table run (-table1, -table2, -gap, -ceiling)"
	}
	return "-" + mode
}

// openCache maps the -cache flag to an artifact cache: "off" yields a plain
// in-memory cache, "auto" the conventional store dir (FRAGDROID_CACHE or the
// user cache dir), anything else a store rooted at that directory.
func openCache(flagVal string) (*artifact.Cache, error) {
	dir, err := artifact.ResolveDir(flagVal)
	if err != nil {
		return nil, err
	}
	return artifact.NewPersistentCache(dir)
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
