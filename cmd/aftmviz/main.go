// Command aftmviz renders an app's Activity & Fragment Transition Model as
// Graphviz DOT — the static model by default, or the evolved model with
// visited markings after a full exploration (-explored).
//
// Usage:
//
//	aftmviz -app demo > aftm.dot
//	aftmviz -app com.inditex.zara -explored | dot -Tsvg > aftm.svg
//
// The app is named with -app only; a positional argument is an error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"fragdroid/internal/apk"
	"fragdroid/internal/artifact"
	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aftmviz:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aftmviz", flag.ContinueOnError)
	var (
		appArg   = fs.String("app", "demo", "corpus app name or path to a .sapk archive")
		explored = fs.Bool("explored", false, "run the full exploration and mark visited nodes")
		trace    = fs.String("trace", "", "write the exploration's structured trace as JSON to this file (implies -explored)")
		cacheDir = fs.String("cache", "auto", "persistent artifact store: auto, off, or a directory")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("takes no arguments, got %s; name the app with -app", strings.Join(fs.Args(), " "))
	}
	dir, err := artifact.ResolveDir(*cacheDir)
	if err != nil {
		return err
	}
	cache, err := artifact.NewPersistentCache(dir)
	if err != nil {
		return err
	}
	ex, err := loadExtraction(cache, *appArg)
	if err != nil {
		return err
	}
	if *explored || *trace != "" {
		cfg := explorer.DefaultConfig()
		var buf *session.TraceBuffer
		if *trace != "" {
			buf = &session.TraceBuffer{}
			cfg.Observer = buf
		}
		res, err := explorer.ExploreExtracted(ex, cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.Model.DOT(ex.App.Manifest.Package + " (explored)"))
		if buf != nil {
			data, err := buf.JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*trace, append(data, '\n'), 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	fmt.Println(ex.Model.DOT(ex.App.Manifest.Package + " (static)"))
	return nil
}

// loadExtraction resolves the -app argument to a static extraction, via the
// artifact cache for spec-built corpus apps.
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
	if arg == "demo" || arg == "com.demo.app" {
		return cache.Extraction(corpus.DemoSpec())
	}
	for _, row := range corpus.PaperRows() {
		if row.Package == arg {
			return cache.Extraction(corpus.PaperSpec(row))
		}
	}
	return nil, fmt.Errorf("unknown app %q", arg)
}
