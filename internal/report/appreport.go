package report

import (
	"fmt"
	"strings"

	"fragdroid/internal/aftm"
	"fragdroid/internal/explorer"
)

// RenderAppReport renders a single app's exploration as a markdown report:
// coverage summary, the AFTM shape, every visit with its reach method and
// route length, the unvisited nodes with the reason the run logged for them,
// and the sensitive-API findings. The reasons come from the transcript, so
// only a traced run (explorer.Config.Observer set) has them.
func RenderAppReport(pkg string, res *explorer.Result) string {
	var b strings.Builder
	ex := res.Extraction

	fmt.Fprintf(&b, "# FragDroid report — %s\n\n", pkg)

	va, sa := len(res.VisitedActivities()), len(ex.EffectiveActivities)
	vf, sf := len(res.VisitedFragments()), len(ex.EffectiveFragments)
	fv, fsum := res.FragmentsInVisitedActivities()
	c := res.Model.Count()
	b.WriteString("## Coverage\n\n")
	fmt.Fprintf(&b, "| metric | visited | sum | rate |\n|---|---|---|---|\n")
	fmt.Fprintf(&b, "| activities | %d | %d | %.2f%% |\n", va, sa, rate(va, sa))
	fmt.Fprintf(&b, "| fragments | %d | %d | %.2f%% |\n", vf, sf, rate(vf, sf))
	fmt.Fprintf(&b, "| fragments in visited activities | %d | %d | %.2f%% |\n\n", fv, fsum, rate(fv, fsum))
	fmt.Fprintf(&b, "AFTM: %d activities, %d fragments; edges E1=%d E2=%d E3=%d. ",
		c.Activities, c.Fragments, c.E1, c.E2, c.E3)
	fmt.Fprintf(&b, "Work: %d test cases, %d device steps, %d crashes. ",
		res.TestCases, res.Steps, res.Crashes)
	fmt.Fprintf(&b, "Session: %d replays, %d reflection attempts (%d failed), %d forced starts, %d input fills.\n\n",
		res.Replays, res.ReflectionAttempts, res.ReflectionFailures,
		res.ForcedStarts, res.InputFills)

	b.WriteString("## Visits\n\n")
	b.WriteString("| node | reached via | route ops |\n|---|---|---|\n")
	for _, n := range res.Model.Nodes() {
		v, ok := res.Visits[n]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "| %s | %s | %d |\n", n, v.Method, len(v.Route.Ops))
	}
	b.WriteByte('\n')

	unvisited := append(res.Model.Unvisited(aftm.KindActivity), res.Model.Unvisited(aftm.KindFragment)...)
	if len(unvisited) > 0 {
		b.WriteString("## Not visited\n\n")
		for _, n := range unvisited {
			fmt.Fprintf(&b, "- %s%s\n", n, reasonFor(res, n))
		}
		b.WriteByte('\n')
	}

	if len(res.CrashReports) > 0 {
		b.WriteString("## Crashes found\n\n")
		for _, cr := range res.CrashReports {
			fmt.Fprintf(&b, "- `%s` (%d ops to reproduce)\n", cr.Reason, len(cr.Route.Ops))
		}
		b.WriteByte('\n')
	}

	if us := res.Collector.Usages(); len(us) > 0 {
		b.WriteString("## Sensitive APIs\n\n")
		b.WriteString("| API | invoked by | classes |\n|---|---|---|\n")
		for _, u := range us {
			fmt.Fprintf(&b, "| %s | %s | %s |\n", u.API, u.Mark().ASCII(), strings.Join(u.Classes, ", "))
		}
		b.WriteByte('\n')
	}

	return b.String()
}

// reasonFor scans the transcript for the last message naming the node, the
// closest thing a run has to a per-node miss explanation.
func reasonFor(res *explorer.Result, n aftm.Node) string {
	for i := len(res.Transcript) - 1; i >= 0; i-- {
		line := res.Transcript[i]
		if strings.Contains(line, n.Name) &&
			(strings.Contains(line, "failed") || strings.Contains(line, "skipped")) {
			return " — " + line
		}
	}
	return ""
}
