package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one call into the program, recorded from outside: the benchmark
// wraps each public call a traced op makes in a span. App is the app's index
// within the op, or -1 for a call that serves the whole op (a fold, a flush).
// Attr spans re-run one sub-layer standalone, because the op calls that layer
// only inside another call (Extract, Load, Explore) or not at all; they are
// reported as layers but excluded from the covered share of the op.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	App    int    `json:"app"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Attr   bool   `json:"attr"`
}

// opWindow is the wall-clock interval of one traced op.
type opWindow struct {
	start, end time.Duration
	apps       int
}

// tracer keeps every span in memory and aggregates per-layer values as the
// spans end: vals[layer][op][app] sums the layer's self time (for spans) or
// its counts (for add) per app, app -1 holding the op-level share.
type tracer struct {
	base  time.Time
	op    int
	ops   []opWindow
	spans []span
	open  []int           // indexes into spans of the open spans
	child []time.Duration // time covered by the children of each open span
	vals  map[string][]map[int]float64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), vals: make(map[string][]map[int]float64)}
}

func (t *tracer) now() time.Duration { return time.Since(t.base) }

// beginOp starts a traced op; endOp closes it with the number of distinct
// apps its spans were indexed by.
func (t *tracer) beginOp() {
	t.op = len(t.ops)
	t.ops = append(t.ops, opWindow{start: t.now()})
}

func (t *tracer) endOp(apps int) {
	w := &t.ops[t.op]
	w.end = t.now()
	w.apps = apps
}

// do runs fn inside a span named after its layer; the span's self time is
// added to the layer's "_us" value for the app.
func (t *tracer) do(layer string, app int, fn func() error) error {
	t.begin(layer, app, false)
	err := fn()
	t.end()
	return err
}

// attr is do for an attr span.
func (t *tracer) attr(layer string, app int, fn func() error) error {
	t.begin(layer, app, true)
	err := fn()
	t.end()
	return err
}

func (t *tracer) begin(name string, app int, attr bool) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		Op: t.op, ID: len(t.spans) + 1, Parent: parent, Name: name, App: app,
		Start: int64(t.now()), Attr: attr,
	})
	t.open = append(t.open, len(t.spans)-1)
	t.child = append(t.child, 0)
}

func (t *tracer) end() {
	n := len(t.open) - 1
	s := &t.spans[t.open[n]]
	s.End = int64(t.now())
	dur := time.Duration(s.End - s.Start)
	self := dur - t.child[n]
	t.open, t.child = t.open[:n], t.child[:n]
	if n > 0 {
		t.child[n-1] += dur
	}
	if s.Name != probeSpan {
		t.add(s.Name+"_us", s.App, float64(self)/float64(time.Microsecond))
	}
}

// add accumulates a per-app value (a count, or a time measured by the
// caller) for the current op.
func (t *tracer) add(name string, app int, v float64) {
	byOp := t.vals[name]
	for len(byOp) <= t.op {
		byOp = append(byOp, nil)
	}
	if byOp[t.op] == nil {
		byOp[t.op] = make(map[int]float64)
	}
	byOp[t.op][app] += v
	t.vals[name] = byOp
}

// probeSpan names the attr region that holds one app's standalone re-runs;
// it is a container, not a layer.
const probeSpan = "probe"

// layer returns the median per-app value of a layer over every traced op:
// each app's own value plus an even share of the op-level value, or the
// op-level share alone when no app-level value exists in that op. ok is
// false when no op recorded the layer.
func (t *tracer) layer(name string) (v float64, ok bool) {
	var samples []float64
	for op, byApp := range t.vals[name] {
		if byApp == nil || op >= len(t.ops) {
			continue
		}
		share := 0.0
		if apps := t.ops[op].apps; apps > 0 {
			share = byApp[-1] / float64(apps)
		}
		n := len(samples)
		for app, x := range byApp {
			if app >= 0 {
				samples = append(samples, x+share)
			}
		}
		if len(samples) == n {
			samples = append(samples, share)
		}
	}
	if len(samples) == 0 {
		return 0, false
	}
	return median(samples), true
}

// ratio returns the median over apps of one per-app value divided by
// another, skipping apps whose denominator is zero.
func (t *tracer) ratio(num, den string) (float64, bool) {
	var samples []float64
	dens := t.vals[den]
	for op, byApp := range t.vals[num] {
		if op >= len(dens) {
			break
		}
		for app, x := range byApp {
			if d := dens[op][app]; app >= 0 && d > 0 {
				samples = append(samples, x/d)
			}
		}
	}
	if len(samples) == 0 {
		return 0, false
	}
	return median(samples), true
}

// coverage returns, per traced op, the share of the op's wall time that its
// top-level non-attr spans account for, with attr time taken out of the
// wall; and the op's wall time without attr time.
func (t *tracer) coverage() (covered, wall []float64) {
	top := make([]time.Duration, len(t.ops))
	attr := make([]time.Duration, len(t.ops))
	for _, s := range t.spans {
		if s.Parent != 0 || s.Op >= len(t.ops) {
			continue
		}
		d := time.Duration(s.End - s.Start)
		if s.Attr {
			attr[s.Op] += d
		} else {
			top[s.Op] += d
		}
	}
	for op, w := range t.ops {
		if w.end == 0 {
			continue
		}
		net := w.end - w.start - attr[op]
		if net <= 0 {
			continue
		}
		covered = append(covered, float64(top[op])/float64(net))
		wall = append(wall, float64(net))
	}
	return covered, wall
}

// write stores every span as a JSON array, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	sep := "["
	for _, s := range t.spans {
		data, err := json.Marshal(s)
		if err != nil {
			f.Close()
			return err
		}
		fmt.Fprintf(w, "%s\n%s", sep, data)
		sep = ","
	}
	if len(t.spans) == 0 {
		w.WriteString("[")
	}
	w.WriteString("\n]\n")
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
