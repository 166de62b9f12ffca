// Package session implements the shared exploration-session runtime every
// dynamic engine runs on: device provisioning wired to a sensitive-API
// collector, budgeted Robotium script execution with test-case and step
// accounting, crash triage (one report per distinct force-close reason, each
// with a replayable route), coverage-curve sampling, and a structured trace
// of typed events behind a pluggable Observer sink.
//
// The explorer, the Activity-level baseline, Monkey, and the recorder's
// replay all share this layer, so the harness mechanics — budgets, restarts,
// crash handling — are identical across strategies by construction (the
// fairness requirement of comparative evaluations; Choudhary et al.), and
// every run yields the same telemetry shape for the report tables.
package session

import (
	"fmt"

	"fragdroid/internal/apk"
	"fragdroid/internal/device"
	"fragdroid/internal/robotium"
	"fragdroid/internal/sensitive"
)

// Stats is the shared run-stats shape: the counters every engine accumulates
// through the session. Engine results embed it, so the report layer consumes
// one shape instead of converting between per-engine fields.
type Stats struct {
	// TestCases counts budgeted script executions (one fresh instrumentation
	// run each), or injected event batches for engines that drive a
	// long-lived device directly.
	TestCases int `json:"test_cases"`
	// Steps is the accumulated device work (interpreted instructions plus
	// delivered UI events).
	Steps int `json:"steps"`
	// Crashes counts observed force-closes.
	Crashes int `json:"crashes"`
	// Replays counts script runs that re-established a previously reached
	// interface (PurposeReplay).
	Replays int `json:"replays"`
	// ReflectionAttempts counts reflective fragment-switch scripts executed;
	// ReflectionFailures the attempts that did not credit their fragment.
	ReflectionAttempts int `json:"reflection_attempts"`
	ReflectionFailures int `json:"reflection_failures"`
	// ForcedStarts counts forced empty-Intent start scripts executed.
	ForcedStarts int `json:"forced_starts"`
	// InputFills counts input widgets successfully filled.
	InputFills int `json:"input_fills"`
	// SnapshotHits counts script executions that resumed from a memoized
	// route-prefix snapshot instead of re-executing it from launch.
	SnapshotHits int `json:"snapshot_hits"`
	// SnapshotRestores counts device restore operations performed (engines
	// driving a long-lived device may restore several times per billed hit).
	SnapshotRestores int `json:"snapshot_restores"`
	// StepsSaved is the interpreter work credited by snapshot restores
	// instead of executed — Steps counts it either way, so budgets and
	// reported work are identical with snapshots on or off.
	StepsSaved int `json:"steps_saved"`
	// Evictions counts memo entries evicted by capacity pressure during this
	// run's stores — the observable signal that the snapshot memo is
	// undersized for the workload.
	Evictions int `json:"evictions,omitempty"`
	// BytesPinned is the peak estimated bytes of snapshot state the memo held
	// for this run's app, sampled after each script run. It counts that app's
	// entries only, so concurrent runs over one shared memo cannot move it;
	// Add sums the per-app peaks.
	BytesPinned int `json:"bytes_pinned,omitempty"`
}

// Add returns the element-wise sum of two stats.
func (s Stats) Add(o Stats) Stats {
	s.TestCases += o.TestCases
	s.Steps += o.Steps
	s.Crashes += o.Crashes
	s.Replays += o.Replays
	s.ReflectionAttempts += o.ReflectionAttempts
	s.ReflectionFailures += o.ReflectionFailures
	s.ForcedStarts += o.ForcedStarts
	s.InputFills += o.InputFills
	s.SnapshotHits += o.SnapshotHits
	s.SnapshotRestores += o.SnapshotRestores
	s.StepsSaved += o.StepsSaved
	s.Evictions += o.Evictions
	s.BytesPinned += o.BytesPinned
	return s
}

// CrashReport is one distinct force-close with a route that reproduces it.
type CrashReport struct {
	// Reason is the FC message (exception-style).
	Reason string
	// Route is the operation list whose execution crashed the app.
	Route robotium.Script
}

// CurvePoint is one sample of the coverage curve.
type CurvePoint struct {
	// TestCase is the cumulative number of executed test cases.
	TestCase int
	// Activities and Fragments are cumulative visited counts.
	Activities int
	Fragments  int
}

// Options configure a session.
type Options struct {
	// Budget bounds the number of script executions (test cases); zero means
	// unlimited. Engines apply their own defaults before constructing the
	// session.
	Budget int
	// HaltOnAPI stops the session as soon as the named sensitive API is
	// observed (targeted SmartDroid-style runs).
	HaltOnAPI string
	// AutoDismiss makes script runs close dialogs before each operation.
	AutoDismiss bool
	// TriageCrashes keeps one CrashReport per distinct force-close reason,
	// with the route that reproduces it. Engines without fault-finding
	// output (the baselines) leave it off: crashes are still counted.
	TriageCrashes bool
	// Collector receives the run's sensitive-API observations; nil allocates
	// a fresh collector for the app package.
	Collector *sensitive.Collector
	// Observer is the structured trace sink; nil disables event delivery
	// (counters, transcript, and reports are maintained regardless).
	Observer Observer
	// Coverage supplies the cumulative visited counts behind the coverage
	// curve; nil disables curve sampling.
	Coverage func() (activities, fragments int)
	// Snapshots, when set, memoizes device snapshots of executed route
	// prefixes so later script runs resume from the longest memoized prefix
	// instead of re-executing it from launch. Sharing one memo across the
	// sessions of an app's run is the point; nil disables memoization (every
	// run re-executes from scratch, the paper's literal discipline).
	Snapshots *SnapshotMemo
}

// Session is one exploration run's shared runtime state.
type Session struct {
	app  *apk.App
	opts Options

	collector *sensitive.Collector
	stats     Stats
	seq       int

	transcript   []string
	crashSeen    map[string]bool
	crashReports []CrashReport
	curve        []CurvePoint
}

// New returns a session for one app run.
func New(app *apk.App, opts Options) *Session {
	s := &Session{app: app, opts: opts, collector: opts.Collector}
	if s.collector == nil {
		s.collector = sensitive.NewCollector(app.Manifest.Package)
	}
	return s
}

// App returns the application under test.
func (s *Session) App() *apk.App { return s.app }

// Collector returns the session's sensitive-API collector.
func (s *Session) Collector() *sensitive.Collector { return s.collector }

// Stats returns the accumulated counters.
func (s *Session) Stats() Stats { return s.stats }

// Transcript returns the human-readable run log: the Msg lines of the event
// stream, in order.
func (s *Session) Transcript() []string { return s.transcript }

// CrashReports returns the triaged force-closes, one per distinct reason.
func (s *Session) CrashReports() []CrashReport { return s.crashReports }

// Curve returns the coverage-curve samples.
func (s *Session) Curve() []CurvePoint { return s.curve }

// Exhausted reports whether the test-case budget is spent.
func (s *Session) Exhausted() bool {
	return s.opts.Budget > 0 && s.stats.TestCases >= s.opts.Budget
}

// Halted reports whether a targeted run has already observed its API.
func (s *Session) Halted() bool {
	return s.opts.HaltOnAPI != "" && s.collector.Has(s.opts.HaltOnAPI)
}

// Trace emits one structured event: it stamps the sequence number and app,
// updates the counters the event kind implies, appends Msg (when present) to
// the transcript, and delivers the event to the Observer if one is attached.
func (s *Session) Trace(ev Event) {
	s.seq++
	ev.Seq = s.seq
	ev.App = s.app.Manifest.Package
	switch ev.Kind {
	case KindInputFill:
		if ev.Err == "" {
			s.stats.InputFills++
		}
	case KindReflectionAttempt:
		if ev.Err != "" {
			s.stats.ReflectionFailures++
		}
	}
	if ev.Msg != "" {
		s.transcript = append(s.transcript, ev.Msg)
	}
	if s.opts.Observer != nil {
		s.opts.Observer.OnEvent(ev)
	}
}

// Notef emits a free-form note event whose Msg becomes a transcript line.
func (s *Session) Notef(format string, args ...any) {
	s.Trace(Event{Kind: KindNote, Msg: fmt.Sprintf(format, args...)})
}

// NewDevice provisions a fresh instrumented device: the app installed, the
// sensitive-API monitor wired to the session collector, and — while an
// Observer is attached — the device log forwarded as trace events.
func (s *Session) NewDevice() *device.Device {
	opts := device.Options{Monitor: func(ev device.SensitiveEvent) {
		e := sensitive.Event(ev)
		s.collector.Observe(e)
		if s.opts.Observer != nil {
			s.Trace(Event{Kind: KindSensitive, API: e.API, Class: e.Class,
				InFragment: e.InFragment, Activity: e.Activity})
		}
	}}
	if s.opts.Observer != nil {
		opts.Hook = func(line string) {
			s.Trace(Event{Kind: KindDevice, Detail: line})
		}
	}
	return device.New(s.app, opts)
}

// RunScript provisions a fresh device and executes one budgeted test case on
// it. The third return is false when the session is halted or out of budget
// (no device was provisioned then).
func (s *Session) RunScript(sc robotium.Script, p Purpose) (*device.Device, robotium.Result, bool) {
	if s.Halted() || s.Exhausted() {
		return nil, robotium.Result{}, false
	}
	d := s.NewDevice()
	res, ok := s.RunOn(d, sc, p)
	return d, res, ok
}

// RunOn executes one budgeted test case on a caller-provided device,
// applying the same accounting, crash triage, curve sampling, and tracing as
// RunScript. Steps are charged as the device's delta across the run, so
// long-lived devices are billed correctly.
func (s *Session) RunOn(d *device.Device, sc robotium.Script, p Purpose) (robotium.Result, bool) {
	if s.Halted() || s.Exhausted() {
		return robotium.Result{}, false
	}
	s.stats.TestCases++
	switch p {
	case PurposeReplay, PurposeSeed:
		s.stats.Replays++
	case PurposeReflection:
		s.stats.ReflectionAttempts++
	case PurposeForcedStart:
		s.stats.ForcedStarts++
	}
	opts := robotium.Options{AutoDismiss: s.opts.AutoDismiss}
	if s.opts.Observer != nil {
		opts.Observe = func(op robotium.Op, err error) {
			s.Trace(Event{Kind: KindOp, Script: sc.Name, Op: op.String(), Err: errString(err)})
		}
	}
	// Steps and restored-steps baselines are read before any restore so the
	// deltas below include the credited prefix — the run is billed the same
	// logical work whether the prefix was executed or restored.
	before := d.Steps()
	beforeRestored := d.RestoredSteps()
	hashed, hash := 0, fnvOffset
	if memo := s.opts.Snapshots; memo != nil {
		snap, n, h := memo.LongestPrefix(s.app, s.opts.AutoDismiss, sc.Ops)
		if snap != nil && d.Restore(snap) == nil {
			opts.Resume = n
			hashed, hash = n, h
			s.stats.SnapshotHits++
			s.stats.SnapshotRestores++
			if s.opts.Observer != nil {
				// Re-emit the per-op events the skipped execution would
				// have produced; only successful prefixes are memoized.
				for _, op := range sc.Ops[:n] {
					s.Trace(Event{Kind: KindOp, Script: sc.Name, Op: op.String()})
				}
			}
		}
		opts.Checkpoint = func(executed int) {
			if d.Crashed() {
				return // crashed states must never be resumed into
			}
			for hashed < executed {
				hash = hashOp(hash, sc.Ops[hashed])
				hashed++
			}
			// Only the full route writes through to the persistent store;
			// partial prefixes stay in memory (the full entry subsumes them).
			persist := executed == len(sc.Ops)
			s.stats.Evictions += memo.store(s.app, s.opts.AutoDismiss, hash, sc.Ops[:executed], d, persist)
		}
	}
	res := robotium.Run(d, sc, opts)
	if memo := s.opts.Snapshots; memo != nil {
		if hashed > 0 && hashed < len(sc.Ops) {
			// The route stopped short — a crash or an op error — so the
			// full-route persistence gate never fired. Promote the longest
			// clean checkpoint instead: a warm run then resumes at the
			// failing op rather than re-executing the route from launch.
			memo.Promote(s.app, s.opts.AutoDismiss, hash, sc.Ops[:hashed])
		}
		if bp := memo.BytesPinned(s.app); bp > s.stats.BytesPinned {
			s.stats.BytesPinned = bp
		}
	}
	delta := d.Steps() - before
	s.stats.Steps += delta
	s.stats.StepsSaved += d.RestoredSteps() - beforeRestored
	if res.Crashed {
		s.MarkCrash(res.CrashReason, sc)
	}
	s.Trace(Event{Kind: KindScriptRun, Script: sc.Name, Purpose: p,
		Ops: len(sc.Ops), Executed: res.Executed, Steps: delta,
		Crashed: res.Crashed, Reason: res.CrashReason, Err: errString(res.Err),
		TestCase: s.stats.TestCases})
	s.SampleCurve()
	return res, true
}

// MarkCrash counts one observed force-close. With triage enabled, the first
// route per distinct reason is kept as a replayable CrashReport.
func (s *Session) MarkCrash(reason string, route robotium.Script) {
	s.stats.Crashes++
	if !s.opts.TriageCrashes || reason == "" || s.crashSeen[reason] {
		s.Trace(Event{Kind: KindCrash, Reason: reason})
		return
	}
	if s.crashSeen == nil {
		s.crashSeen = make(map[string]bool)
	}
	s.crashSeen[reason] = true
	s.crashReports = append(s.crashReports, CrashReport{Reason: reason, Route: route})
	s.Trace(Event{Kind: KindCrash, Reason: reason, Ops: len(route.Ops),
		Msg: fmt.Sprintf("crash recorded: %s (%d ops to reproduce)", reason, len(route.Ops))})
}

// SampleCurve appends a coverage sample when coverage changed (the latest
// test case always holds the current sample). No-op without a Coverage
// source.
func (s *Session) SampleCurve() {
	if s.opts.Coverage == nil {
		return
	}
	acts, frags := s.opts.Coverage()
	p := CurvePoint{TestCase: s.stats.TestCases, Activities: acts, Fragments: frags}
	if n := len(s.curve); n > 0 {
		last := s.curve[n-1]
		if last.Activities == p.Activities && last.Fragments == p.Fragments {
			s.curve[n-1] = p // slide the flat tail forward
			return
		}
	}
	s.curve = append(s.curve, p)
	if s.opts.Observer != nil {
		s.Trace(Event{Kind: KindCurve, TestCase: p.TestCase,
			Activities: p.Activities, Fragments: p.Fragments})
	}
}

// AddTestCases charges n test cases to the session without running scripts —
// for engines that inject raw events on a long-lived device (Monkey bills
// its event batches this way).
func (s *Session) AddTestCases(n int) { s.stats.TestCases += n }

// AddSteps charges device work performed outside RunOn.
func (s *Session) AddSteps(n int) { s.stats.Steps += n }

// AddSnapshot charges snapshot accounting performed outside RunOn — engines
// driving a long-lived device restore restart prefixes themselves and bill
// the session here.
func (s *Session) AddSnapshot(hits, restores, stepsSaved int) {
	s.stats.SnapshotHits += hits
	s.stats.SnapshotRestores += restores
	s.stats.StepsSaved += stepsSaved
}

// AddEvictions charges memo evictions caused by stores performed outside
// RunOn (the explorer's probe memoization bills itself here).
func (s *Session) AddEvictions(n int) { s.stats.Evictions += n }

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
