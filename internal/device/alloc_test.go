package device_test

import (
	"testing"

	"fragdroid/internal/device"
)

// TestLaunchReplayAllocBudget is the allocation regression gate for the
// kill-and-restart hot loop: one device reset and launched at the entry
// activity, the work every replayed test case of a session pays before its
// first own operation. Measured at 1 alloc/op on the IR interpreter with
// go1.24 on linux/amd64: the compiled program is built once per app and
// shared, register frames come from the pool, the reset device reuses its
// activity and fragment instances and their maps, no log line is built
// without a Hook, and the manifest's entry lookup builds no slice. What
// remains is the launch popup's dialog. Before the entry lookup stopped
// allocating the count was 2, and a fresh device per launch made 18. The
// budget is the measured count; a regression here multiplies across every
// generated test case of every evaluation run, so it fails loudly instead
// of surfacing as a slow bench. The count is skipped under the race
// detector, whose sync.Pool drops some of the frames put back, so a launch
// reads 2 allocs/op on some runs.
func TestLaunchReplayAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	const budget = 1
	app := benchApp(t, "com.adobe.reader")
	d := device.New(app, device.Options{})
	got := testing.AllocsPerRun(100, func() {
		d.Reset()
		if err := d.LaunchMain(); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Fatalf("launch-replay step allocates %.1f objects/op, budget %d", got, budget)
	}
}

// TestSnapshotRestoreAllocBudget gates restoring a captured snapshot onto a
// fresh device, the benchmark's per-restore probe. Measured at 9 allocs/op
// (the deep copy of one activity frame plus the device shell); the budget
// allows modest growth.
func TestSnapshotRestoreAllocBudget(t *testing.T) {
	const budget = 12
	app := benchApp(t, "com.adobe.reader")
	src := device.New(app, device.Options{})
	if err := src.LaunchMain(); err != nil {
		t.Fatal(err)
	}
	snap := src.Snapshot()
	got := testing.AllocsPerRun(100, func() {
		d := device.New(app, device.Options{})
		if err := d.Restore(snap); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Fatalf("snapshot restore allocates %.1f objects/op, budget %d", got, budget)
	}
}
