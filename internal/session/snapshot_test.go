package session_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
	"fragdroid/internal/explorer"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
)

// recordedDevice is a fresh device whose log lines and sensitive events are
// recorded as they are emitted.
type recordedDevice struct {
	*device.Device
	lines  []string
	events []device.SensitiveEvent
}

func newRecordedDevice(app *apk.App) *recordedDevice {
	r := &recordedDevice{}
	r.Device = device.New(app, device.Options{
		Hook:    func(l string) { r.lines = append(r.lines, l) },
		Monitor: func(e device.SensitiveEvent) { r.events = append(r.events, e) },
	})
	return r
}

// screen is the externally observable state of a device: where it is, what
// it shows, what it logged, and whether it crashed.
type screen struct {
	Activity string
	Dump     device.UIDump
	Steps    int
	Log      []string
	Crashed  bool
	Reason   string
}

func observe(t *testing.T, d *device.Device) screen {
	t.Helper()
	sc := screen{Steps: d.Steps(), Log: d.Events(), Crashed: d.Crashed(), Reason: d.CrashReason()}
	if d.Running() {
		var err error
		if sc.Activity, err = d.CurrentActivity(); err != nil {
			t.Fatalf("CurrentActivity: %v", err)
		}
		if sc.Dump, err = d.Dump(); err != nil {
			t.Fatalf("Dump: %v", err)
		}
	}
	return sc
}

// TestSnapshotParityGolden checks device snapshots against the golden
// fixtures' routes: every visit route the explorer finds on a fixture app
// (each must appear in the fixture) is replayed from launch on a fresh
// device, and a snapshot of its end state restored onto another fresh
// device must show the same screen, bill the same steps — as restored, not
// executed — and re-emit the same device log and sensitive events in the
// same order. Both devices must then take the same next step alike.
func TestSnapshotParityGolden(t *testing.T) {
	for _, pkg := range parityApps {
		pkg := pkg
		t.Run(pkg, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", "parity_"+pkg+".golden"))
			if err != nil {
				t.Fatalf("missing golden fixture: %v", err)
			}
			app, err := corpus.BuildApp(parityApp(t, pkg))
			if err != nil {
				t.Fatalf("build %s: %v", pkg, err)
			}
			cfg := explorer.DefaultConfig()
			cfg.MaxTestCases = 4000
			res, err := explorer.Explore(app, cfg)
			if err != nil {
				t.Fatalf("explore %s: %v", pkg, err)
			}
			visits := make([]explorer.Visit, 0, len(res.Visits))
			for _, v := range res.Visits {
				visits = append(visits, v)
			}
			sort.Slice(visits, func(i, j int) bool { return visits[i].Node.String() < visits[j].Node.String() })
			if len(visits) == 0 {
				t.Fatal("the exploration visited nothing; the test is vacuous")
			}
			for _, v := range visits {
				line := fmt.Sprintf("visit %s via %s route=%s\n", v.Node, v.Method, renderScript(v.Route))
				if !strings.Contains(string(golden), line) {
					t.Fatalf("%q is not in the golden fixture", strings.TrimSpace(line))
				}

				replayed := newRecordedDevice(app)
				robotium.Run(replayed.Device, v.Route, robotium.Options{AutoDismiss: true})
				restored := newRecordedDevice(app)
				if err := restored.Restore(replayed.Snapshot()); err != nil {
					t.Fatalf("%s: Restore: %v", v.Route.Name, err)
				}
				want := observe(t, replayed.Device)
				if got := observe(t, restored.Device); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: restored device diverged from the replay:\n got: %+v\nwant: %+v", v.Route.Name, got, want)
				}
				if restored.RestoredSteps() != replayed.Steps() || restored.ExecutedSteps() != 0 {
					t.Fatalf("%s: restored/executed steps = %d/%d, want %d/0",
						v.Route.Name, restored.RestoredSteps(), restored.ExecutedSteps(), replayed.Steps())
				}
				if !reflect.DeepEqual(restored.lines, replayed.lines) || !reflect.DeepEqual(restored.events, replayed.events) {
					t.Fatalf("%s: restore re-emitted %d lines and %d sensitive events, the replay %d and %d",
						v.Route.Name, len(restored.lines), len(restored.events), len(replayed.lines), len(replayed.events))
				}

				_ = replayed.Back()
				_ = restored.Back()
				if got, want := observe(t, restored.Device), observe(t, replayed.Device); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: devices diverged after Back:\n got: %+v\nwant: %+v", v.Route.Name, got, want)
				}
			}
		})
	}
}

func launchScript() robotium.Script {
	return robotium.Script{Name: "launch", Ops: []robotium.Op{robotium.LaunchMain()}}
}

// TestSnapshotStepAccounting pins the step billing that snapshots stand
// for: a session runs every test case from launch and bills each run the
// steps its device executed, none restored; a snapshot of the route's end
// state stands for exactly that per-run charge; and restoring it bills the
// charge as restored steps, with nothing executed.
func TestSnapshotStepAccounting(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	route := launchScript().Append("tab", robotium.Click(corpus.TabButtonRef("Main", "Recent")))

	s := session.New(app, session.Options{AutoDismiss: true})
	var (
		last    *device.Device
		results []robotium.Result
	)
	for i := 0; i < 3; i++ {
		d, res, ok := s.RunScript(route, session.PurposeReplay)
		if !ok || res.Err != nil {
			t.Fatalf("run %d: ok=%v err=%v", i, ok, res.Err)
		}
		if d.RestoredSteps() != 0 || d.ExecutedSteps() != d.Steps() {
			t.Errorf("run %d: restored/executed = %d/%d, want 0/%d", i, d.RestoredSteps(), d.ExecutedSteps(), d.Steps())
		}
		if last != nil && d.Steps() != last.Steps() {
			t.Errorf("run %d billed %d steps, run %d billed %d", i, d.Steps(), i-1, last.Steps())
		}
		last, results = d, append(results, res)
	}
	perRun := last.Steps()
	if perRun == 0 {
		t.Fatal("the route executed no steps; the test is vacuous")
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Errorf("run %d result %+v, run 0 %+v", i, results[i], results[0])
		}
	}
	if st := s.Stats(); st.Steps != 3*perRun || st.TestCases != 3 || st.Replays != 3 {
		t.Errorf("stats = %+v, want 3 test cases and replays billed %d steps", st, 3*perRun)
	}

	snap := last.Snapshot()
	if snap.Steps() != perRun {
		t.Errorf("snapshot stands for %d steps, a run bills %d", snap.Steps(), perRun)
	}
	fresh := device.New(app, device.Options{})
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if fresh.Steps() != perRun || fresh.RestoredSteps() != perRun || fresh.ExecutedSteps() != 0 {
		t.Errorf("restore billed steps/restored/executed = %d/%d/%d, want %d/%d/0",
			fresh.Steps(), fresh.RestoredSteps(), fresh.ExecutedSteps(), perRun, perRun)
	}
}

// TestSnapshotPrefixResume pins the evolutionary-loop pattern against the
// session's own runs: a child route extending a parent, run from launch by
// the session, ends where a device resumed from the parent's snapshot ends
// after executing only the appended suffix — same screen, log and step
// count, with the parent's steps restored and only the suffix's executed.
func TestSnapshotPrefixResume(t *testing.T) {
	app, err := corpus.BuildApp(corpus.DemoSpec())
	if err != nil {
		t.Fatal(err)
	}
	s := session.New(app, session.Options{AutoDismiss: true})

	parent := launchScript()
	d1, res, ok := s.RunScript(parent, session.PurposeLaunch)
	if !ok || res.Err != nil {
		t.Fatalf("parent run: ok=%v err=%v", ok, res.Err)
	}
	parentSteps := d1.Steps()

	suffix := robotium.Click(corpus.NavButtonRef("Main", "Detail"))
	child := parent.Append("child", suffix)
	d2, res, ok := s.RunScript(child, session.PurposeReplay)
	if !ok || res.Err != nil {
		t.Fatalf("child run: ok=%v err=%v", ok, res.Err)
	}
	if res.Executed != len(child.Ops) {
		t.Errorf("child executed = %d, want %d", res.Executed, len(child.Ops))
	}

	resumed := device.New(app, device.Options{})
	if err := resumed.Restore(d1.Snapshot()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	rr := robotium.Run(resumed, robotium.Script{Name: "suffix", Ops: []robotium.Op{suffix}}, robotium.Options{AutoDismiss: true})
	if rr.Err != nil || rr.Executed != 1 {
		t.Fatalf("suffix run: executed=%d err=%v", rr.Executed, rr.Err)
	}
	if got, want := observe(t, resumed), observe(t, d2); !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed device diverged from the session's child run:\n got: %+v\nwant: %+v", got, want)
	}
	if cur, err := resumed.CurrentActivity(); err != nil || cur != "com.demo.app.Detail" {
		t.Errorf("child landed on %q, %v", cur, err)
	}
	if resumed.RestoredSteps() != parentSteps {
		t.Errorf("restored steps = %d, want the parent's %d", resumed.RestoredSteps(), parentSteps)
	}
	if resumed.ExecutedSteps() != d2.Steps()-parentSteps {
		t.Errorf("suffix executed %d steps, want the child's %d less the parent's %d",
			resumed.ExecutedSteps(), d2.Steps(), parentSteps)
	}
}
