package recorder

import (
	"fmt"

	"fragdroid/internal/device"
	"fragdroid/internal/robotium"
	"fragdroid/internal/session"
)

// Strategy replays a library of recordings as budgeted test cases — the
// record-and-replay engine family (RERAN-style, §I) on the shared
// session.Strategy seam. Each recording becomes one script-form proposal
// with PurposeReplay; failures and divergences are noted in the transcript
// rather than aborting the run, so one broken recording does not waste the
// rest of the library. ReplayIn remains the embedded-session form for
// callers that drive a single recording inside an existing session.
type Strategy struct {
	recs    []*Recorder
	next    int
	cur     *Recorder
	s       *session.Session
	visited map[string]bool
}

// NewStrategy returns a replay strategy over the given recordings, ready for
// session.Drive. Empty recordings are skipped with a transcript note.
func NewStrategy(recs ...*Recorder) *Strategy {
	return &Strategy{recs: recs, visited: make(map[string]bool)}
}

// Name implements session.Strategy.
func (r *Strategy) Name() string { return "replay" }

// SessionOptions implements session.Strategy. Replays never auto-dismiss
// dialogs — a recording is reproduced verbatim, popups included.
func (r *Strategy) SessionOptions(h session.Harness) session.Options {
	return session.Options{
		Budget:    h.Budget,
		HaltOnAPI: h.HaltOnAPI,
		Observer:  h.Observer,
		Coverage:  r.coverage,
	}
}

// coverage counts the activities replays landed on; recordings carry no
// fragment observations.
func (r *Strategy) coverage() (int, int) { return len(r.visited), 0 }

// Init binds the run context.
func (r *Strategy) Init(ctx *session.DriveContext) error {
	r.s = ctx.Session
	return nil
}

// Propose yields the next non-empty recording as one replay test case.
func (r *Strategy) Propose() (session.TestCase, bool) {
	for r.next < len(r.recs) {
		rec := r.recs[r.next]
		r.next++
		sc := rec.Script()
		if len(sc.Ops) == 0 {
			r.s.Notef("replay %s skipped: empty recording", sc.Name)
			continue
		}
		r.cur = rec
		return session.TestCase{Script: sc, Purpose: session.PurposeReplay}, true
	}
	return session.TestCase{}, false
}

// Observe verifies the replay landed on the activity the recording ended on
// (the ReplayIn divergence check) and credits the reached activity.
func (r *Strategy) Observe(tc session.TestCase, d *device.Device, res robotium.Result) error {
	if res.Err != nil {
		r.s.Notef("replay %s failed at %q: %v", tc.Script.Name, res.FailedOp, res.Err)
		return nil
	}
	got, err := d.CurrentActivity()
	if err != nil {
		return nil // replay ended off-app; nothing to credit
	}
	if !r.visited[got] {
		r.visited[got] = true
		r.s.Trace(session.Event{Kind: session.KindVisit, Activity: got,
			Script: tc.Script.Name, Ops: len(tc.Script.Ops),
			Msg: fmt.Sprintf("replay reached %s (%d ops)", got, len(tc.Script.Ops))})
	}
	if want, err := r.cur.dev.CurrentActivity(); err == nil && got != want {
		r.s.Notef("replay %s diverged: landed on %s, recorded %s", tc.Script.Name, got, want)
	}
	return nil
}

// Finish fills the generic outcome with the activities replays reached.
func (r *Strategy) Finish(out *session.Outcome) error {
	out.VisitedActivities = session.SortedKeys(r.visited)
	return nil
}
