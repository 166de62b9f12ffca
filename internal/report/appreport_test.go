package report

import (
	"strings"
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/session"
)

func TestRenderAppReport(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The miss reasons come from the transcript, which only a traced run
	// keeps.
	cfg := explorer.DefaultConfig()
	cfg.Observer = &session.TraceBuffer{}
	res, err := explorer.Explore(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	md := RenderAppReport("com.demo.app", res)
	for _, want := range []string{
		"# FragDroid report — com.demo.app",
		"## Coverage",
		"| activities |",
		"## Visits",
		"reflection",
		"## Not visited",
		"com.demo.app.VIP",
		"## Sensitive APIs",
		"internet/connect",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// The VIP miss carries its transcript reason (reflection failure).
	if !strings.Contains(md, "VIP — ") && !strings.Contains(md, "VIP\n") {
		t.Errorf("VIP line malformed:\n%s", md)
	}
	for _, line := range strings.Split(md, "\n") {
		if strings.Contains(line, "com.demo.app.VIP") && strings.HasPrefix(line, "- ") {
			if !strings.Contains(line, "failed") {
				t.Errorf("VIP miss has no reason: %q", line)
			}
		}
	}
}
