// Command appgen writes the synthetic application corpus to disk as .sapk
// archives: the demo app, the 15 Table I apps, the 217-app study corpus, or
// an arbitrarily large generated app family.
//
// Usage:
//
//	appgen -out ./apps                        # demo + the 15 paper apps
//	appgen -out ./apps -corpus study          # the 217-app study corpus
//	appgen -out ./apps -corpus demo           # just the demo app
//	appgen -out ./apps -corpus family -n 500  # 500 family apps + manifest JSON
//
// The family corpus is generated lazily from (-n, -seed); alongside the
// archives it writes family_manifest.json recording every member's package,
// archive file and scenario axes (packed, no-fragments, deeplink,
// receiver-entry, popup).
//
// A flag the selected corpus never reads is an error: -seed goes only with
// the study and family corpora, -n only with the family, and -cache only
// with -trace, whose smoke boots read the store. -n must be at least 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "appgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("appgen", flag.ContinueOnError)
	var (
		out       = fs.String("out", "apps", "output directory")
		which     = fs.String("corpus", "paper", "which corpus: demo, paper, study, family")
		seed      = fs.Int64("seed", 1, "seed for the study/family corpus shapes")
		famN      = fs.Int("n", 100, "family corpus size (with -corpus family)")
		quiet     = fs.Bool("q", false, "suppress per-file output")
		trace     = fs.String("trace", "", "boot each generated app once and write the launch traces as JSON to this file (\"-\" for stdout)")
		cacheFlag = fs.String("cache", "auto", "persistent artifact store for -trace smoke boots: auto, off, or a directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *famN < 1 {
		return fmt.Errorf("-n must be at least 1, got %d", *famN)
	}
	// The corpus is a lazy source, so the family case generates each spec as
	// it is written instead of materializing -n specs up front.
	var src corpus.SpecSource
	var fam *corpus.Family
	switch *which {
	case "demo":
		src = corpus.SliceSource{corpus.DemoSpec()}
	case "paper":
		specs := []*corpus.AppSpec{corpus.DemoSpec()}
		for _, row := range corpus.PaperRows() {
			specs = append(specs, corpus.PaperSpec(row))
		}
		src = corpus.SliceSource(specs)
	case "study":
		src = corpus.SliceSource(corpus.StudySpecs(*seed))
	case "family":
		fam = corpus.NewFamily(*famN, *seed)
		src = fam
	default:
		return fmt.Errorf("unknown corpus %q", *which)
	}
	// Each of these flags is read with the listed corpora only; with any
	// other it would be dropped silently.
	readers := map[string][]string{
		"seed": {"study", "family"},
		"n":    {"family"},
	}
	var unread error
	fs.Visit(func(f *flag.Flag) {
		corpora, ok := readers[f.Name]
		switch {
		case unread != nil:
		case f.Name == "cache" && *trace == "":
			unread = errors.New("-cache needs -trace")
		case ok && !slices.Contains(corpora, *which):
			unread = fmt.Errorf("-%s needs -corpus %s, not -corpus %s", f.Name, strings.Join(corpora, " or "), *which)
		}
	})
	if unread != nil {
		return unread
	}
	var cache *artifact.Cache
	var buf *session.TraceBuffer
	if *trace != "" {
		dir, err := artifact.ResolveDir(*cacheFlag)
		if err != nil {
			return err
		}
		if cache, err = artifact.NewPersistentCache(dir); err != nil {
			return err
		}
		buf = &session.TraceBuffer{}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	var manifest *familyManifest
	if fam != nil {
		manifest = &familyManifest{Corpus: "family", N: *famN, Seed: *seed}
	}
	for i := 0; i < src.Len(); i++ {
		spec := src.At(i)
		arch, err := corpus.BuildArchive(spec)
		if err != nil {
			return err
		}
		path := filepath.Join(*out, spec.Package+".sapk")
		if err := writeArchive(arch, path); err != nil {
			return err
		}
		if manifest != nil {
			manifest.Apps = append(manifest.Apps, familyManifestApp{
				Package: spec.Package,
				File:    filepath.Base(path),
				Axes:    fam.Axes(i),
			})
		}
		if buf != nil {
			if err := smokeBoot(cache, spec, buf); err != nil {
				return fmt.Errorf("smoke boot %s: %w", spec.Package, err)
			}
		}
		if !*quiet {
			fmt.Printf("wrote %s (%d entries)\n", path, arch.Len())
		}
	}
	if manifest != nil {
		path := filepath.Join(*out, "family_manifest.json")
		data, err := json.MarshalIndent(manifest, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		if !*quiet {
			fmt.Printf("wrote %s (%d apps)\n", path, len(manifest.Apps))
		}
	}
	fmt.Printf("%d app archives written to %s\n", src.Len(), *out)
	if buf == nil {
		return nil
	}
	data, err := buf.JSON()
	if err != nil {
		return err
	}
	if *trace == "-" {
		fmt.Println(string(data))
		return nil
	}
	return os.WriteFile(*trace, append(data, '\n'), 0o644)
}

// familyManifest is the JSON sidecar written next to a generated family:
// the generation parameters plus, per member, its package, archive file and
// scenario axes — enough for downstream tooling to select apps by axis
// without re-deriving the generator's assignment.
type familyManifest struct {
	Corpus string              `json:"corpus"`
	N      int                 `json:"n"`
	Seed   int64               `json:"seed"`
	Apps   []familyManifestApp `json:"apps"`
}

type familyManifestApp struct {
	Package string   `json:"package"`
	File    string   `json:"file"`
	Axes    []string `json:"axes,omitempty"`
}

// smokeBoot launches a generated app once in a traced single-test-case
// session — an archive smoke test whose structured events land in buf. The
// booted app comes out of the artifact cache, so a re-run of appgen -trace
// loads the corpus instead of rebuilding it.
func smokeBoot(cache *artifact.Cache, spec *corpus.AppSpec, buf *session.TraceBuffer) error {
	app, err := cache.App(spec)
	if err != nil {
		return err
	}
	s := session.New(app, session.Options{Budget: 1, AutoDismiss: true, Observer: buf})
	launch := robotium.Script{Name: "smoke_launch", Ops: []robotium.Op{robotium.LaunchMain()}}
	_, res, _ := s.RunScript(launch, session.PurposeProbe)
	if res.Err != nil {
		return res.Err
	}
	return nil
}

func writeArchive(a *apk.Archive, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := a.WriteTo(f); err != nil {
		return err
	}
	return f.Close()
}
