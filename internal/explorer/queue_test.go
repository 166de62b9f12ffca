package explorer

import (
	"testing"

	"fragdroid/internal/aftm"
	"fragdroid/internal/session"
	"fragdroid/internal/statics"
)

func TestPlanQueueOverDemoModel(t *testing.T) {
	ex, err := statics.Extract(demoApp(t))
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanQueue(ex.Model)
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	// One item per node reachable from the entry, entry first.
	reachable := ex.Model.BFS()
	if len(plan) != len(reachable) {
		t.Fatalf("plan = %d items, reachable = %d", len(plan), len(reachable))
	}
	entry, _ := ex.Model.Entry()
	first := plan[0]
	if first.Target != entry || first.Method != ReachLaunch || len(first.Path) != 0 {
		t.Fatalf("entry item = %+v", first)
	}
	for i, item := range plan {
		if item.Index != i {
			t.Errorf("item %d carries index %d", i, item.Index)
		}
		if item.Target == entry {
			continue
		}
		// Each path starts at the entry, is edge-connected, and ends at the
		// target; the start is the second-to-last node.
		cur := entry
		for _, e := range item.Path {
			if e.From != cur {
				t.Fatalf("item %d: path broken at %v", i, e)
			}
			cur = e.To
		}
		if cur != item.Target {
			t.Fatalf("item %d: path ends at %v, want %v", i, cur, item.Target)
		}
		if item.Start != item.Path[len(item.Path)-1].From {
			t.Fatalf("item %d: start %v inconsistent with path", i, item.Start)
		}
	}
	// Fragment targets without explicit click edges plan the reflection
	// mechanism (§VI-B).
	var sawReflection bool
	for _, item := range plan {
		if item.Target.Kind == aftm.KindFragment && item.Method == ReachReflection {
			sawReflection = true
		}
	}
	if !sawReflection {
		t.Error("no fragment item planned via reflection")
	}
}

func TestPlanQueueEmptyModel(t *testing.T) {
	if got := PlanQueue(aftm.New()); got != nil {
		t.Fatalf("plan on entry-less model = %v", got)
	}
}

// TestInitialPlanInResultAndTranscript pins the §VI-B queue of a traced run:
// the transcript opens with one "queue item" line per item PlanQueue derives
// from the result's static model, in order.
func TestInitialPlanInResultAndTranscript(t *testing.T) {
	cfg := fullConfig()
	cfg.Observer = &session.TraceBuffer{}
	res := exploreDemo(t, cfg)
	plan := PlanQueue(res.Extraction.Model)
	if len(plan) == 0 {
		t.Fatal("the demo's static model plans no queue")
	}
	if len(res.Transcript) < len(plan) {
		t.Fatalf("transcript has %d lines, plan %d items", len(res.Transcript), len(plan))
	}
	for i, item := range plan {
		if want := "queue item " + item.String(); res.Transcript[i] != want {
			t.Errorf("transcript line %d = %q, want %q", i, res.Transcript[i], want)
		}
	}
}
