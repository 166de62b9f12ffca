package device_test

import (
	"testing"

	"fragdroid/internal/device"
)

// TestLaunchReplayAllocBudget is the allocation regression gate for the
// kill-and-restart hot loop: one fresh device launched at the entry activity,
// the work every replayed test case pays before its first own operation. The
// budget is the measured count (18 on the IR interpreter — the compiled
// program is built once per app and shared, register frames come from the
// pool) plus headroom for layout growth in the corpus app; a significant
// regression here multiplies across every generated test case of every
// evaluation run, so it fails loudly instead of surfacing as a slow bench.
func TestLaunchReplayAllocBudget(t *testing.T) {
	const budget = 24
	app := benchApp(t, "com.adobe.reader")
	got := testing.AllocsPerRun(100, func() {
		d := device.New(app, device.Options{})
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
