package session_test

import (
	"reflect"
	"sort"
	"testing"

	"fragdroid/internal/corpus"
	"fragdroid/internal/explorer"
	"fragdroid/internal/robotium"
)

// TestResetParity pins that Reset carries no program state from one test
// case into the next, which RunScript relies on when it replays every test
// case of a session on one device. On the demo app and the 15 Table I apps,
// every distinct visit route an exploration finds runs on a device that
// first ran a different route and was then Reset, and on a new device. Both
// runs must give the same result, screen, steps and crash state, and log the
// same lines and sensitive events in the same order.
func TestResetParity(t *testing.T) {
	specs := []*corpus.AppSpec{corpus.DemoSpec()}
	for _, row := range corpus.PaperRows() {
		specs = append(specs, corpus.PaperSpec(row))
	}
	if len(specs) != 16 {
		t.Fatalf("corpus has %d apps, want 16", len(specs))
	}
	opts := robotium.Options{AutoDismiss: true}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Package, func(t *testing.T) {
			app, err := corpus.BuildApp(spec)
			if err != nil {
				t.Fatalf("BuildApp: %v", err)
			}
			res, err := explorer.Explore(app, explorer.DefaultConfig())
			if err != nil {
				t.Fatalf("Explore: %v", err)
			}
			byName := make(map[string]robotium.Script)
			for _, v := range res.Visits {
				byName[renderScript(v.Route)] = v.Route
			}
			names := make([]string, 0, len(byName))
			for name := range byName {
				names = append(names, name)
			}
			sort.Strings(names)
			if len(names) < 2 {
				t.Fatalf("the exploration found %d distinct routes; the test needs two", len(names))
			}

			// Before each Reset the device has run the previous route in
			// the list, and before the first one the last.
			reused := newRecordedDevice(app)
			robotium.Run(reused.Device, byName[names[len(names)-1]], opts)
			for _, name := range names {
				route := byName[name]
				reused.Reset()
				reused.take()
				gotRes := robotium.Run(reused.Device, route, opts)
				fresh := newRecordedDevice(app)
				wantRes := robotium.Run(fresh.Device, route, opts)
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("%s: the reset device's run gave %+v, a new device's %+v", name, gotRes, wantRes)
				}
				gotEv, wantEv := reused.events, fresh.events
				got, want := observe(t, reused), observe(t, fresh)
				if len(want.Log) == 0 {
					t.Fatalf("%s: the run logged nothing; the test is vacuous", name)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the reset device diverged from a new one:\n got: %+v\nwant: %+v", name, got, want)
				}
				if !reflect.DeepEqual(gotEv, wantEv) {
					t.Fatalf("%s: the reset device emitted %+v, a new device %+v", name, gotEv, wantEv)
				}
			}
		})
	}
}
