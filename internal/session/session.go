// Package session implements the shared exploration-session runtime every
// dynamic engine runs on: device provisioning wired to a sensitive-API
// collector, budgeted Robotium script execution with test-case and step
// accounting, crash triage (one report per distinct force-close reason, each
// with a replayable route), coverage-curve sampling, and a structured trace
// of typed events behind a pluggable Observer sink.
//
// Every exploration engine implements Strategy and runs its own loop on one
// Session through Drive; the recorder's replay runs inside a session too. The
// harness mechanics — budgets, restarts, crash handling — are therefore
// identical across strategies by construction (the fairness requirement of
// comparative evaluations; Choudhary et al.), and every run yields the same
// telemetry shape for the report tables.
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
	// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
	SnapshotHits int `json:"snapshot_hits"`
	// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
	SnapshotRestores int `json:"snapshot_restores"`
	// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
	StepsSaved int `json:"steps_saved"`
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
	// Observer is the structured trace sink. While one is attached the
	// session keeps the transcript (the Msg lines of the events it received)
	// and forwards the device log; nil disables both, so an untraced run
	// builds no run text. Counters, crash reports and the curve are kept
	// either way.
	Observer Observer
	// Coverage supplies the cumulative visited counts behind the coverage
	// curve; nil disables curve sampling.
	Coverage func() (activities, fragments int)
}

// Session is one exploration run's shared runtime state.
type Session struct {
	app  *apk.App
	opts Options
	// dev is the device RunScript replays every test case on, provisioned
	// on the first and reset for each later one.
	dev *device.Device

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

// Transcript returns the human-readable run log: the Msg lines of the events
// the Observer received, in order. It is nil without an Observer.
func (s *Session) Transcript() []string { return s.transcript }

// Tracing reports whether an Observer is attached. Engines build transcript
// lines (an event's Msg) only while it holds: the session drops them
// otherwise.
func (s *Session) Tracing() bool { return s.opts.Observer != nil }

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

// Trace emits one structured event: it updates the counters the event's
// Kind and Err imply and, while an Observer is attached, stamps the sequence
// number and app, appends Msg (when present) to the transcript, and delivers
// the event. Untraced, the counters are all it does, so callers must emit
// every event that counts whether or not they built its Msg.
func (s *Session) Trace(ev Event) {
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
	if s.opts.Observer == nil {
		return
	}
	s.seq++
	ev.Seq = s.seq
	ev.App = s.app.Manifest.Package
	if ev.Msg != "" {
		s.transcript = append(s.transcript, ev.Msg)
	}
	s.opts.Observer.OnEvent(ev)
}

// Note emits a note event for an already-built transcript line. Callers on
// a hot path build the line only while Tracing.
func (s *Session) Note(msg string) {
	s.Trace(Event{Kind: KindNote, Msg: msg})
}

// Notef emits a free-form note event whose Msg becomes a transcript line.
// Untraced it formats nothing.
func (s *Session) Notef(format string, args ...any) {
	if s.Tracing() {
		s.Note(fmt.Sprintf(format, args...))
	}
}

// NewDevice provisions a fresh instrumented device: the app installed, the
// sensitive-API monitor wired to the session collector, and — while an
// Observer is attached — the device log forwarded as trace events. Without
// an Observer the device has no Hook, so it builds no log line at all.
// Engines that drive one long-lived device (Monkey, biased, the recorder's
// replay) take theirs here; RunScript keeps its own.
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

// RunScript executes one budgeted test case on the session's device, reset
// to its freshly installed state first: every test case starts from a killed
// app, with no program state left by the ones before (§VI-A Case 3). The
// device is provisioned on the first call with NewDevice and reused after,
// so the returned device is valid only until the session's next RunScript.
// The third return is false when the session is halted or out of budget
// (nothing ran then).
func (s *Session) RunScript(sc robotium.Script, p Purpose) (*device.Device, robotium.Result, bool) {
	if s.Halted() || s.Exhausted() {
		return nil, robotium.Result{}, false
	}
	if s.dev == nil {
		s.dev = s.NewDevice()
	} else {
		s.dev.Reset()
	}
	res, ok := s.RunOn(s.dev, sc, p)
	return s.dev, res, ok
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
	before := d.Steps()
	res := robotium.Run(d, sc, opts)
	delta := d.Steps() - before
	s.stats.Steps += delta
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
	ev := Event{Kind: KindCrash, Reason: reason, Ops: len(route.Ops)}
	if s.Tracing() {
		ev.Msg = fmt.Sprintf("crash recorded: %s (%d ops to reproduce)", reason, len(route.Ops))
	}
	s.Trace(ev)
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

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
