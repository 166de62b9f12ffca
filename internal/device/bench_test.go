package device_test

import (
	"testing"

	"fragdroid/internal/apk"
	"fragdroid/internal/corpus"
	"fragdroid/internal/device"
)

// BenchmarkLaunchReplay is the kill-and-restart hot loop in isolation: one
// device reset and launched at the entry activity per iteration — the work
// every replayed test case of a session pays before its first own
// operation. The allocs/op number is the per-restart interpreter footprint.
func BenchmarkLaunchReplay(b *testing.B) {
	app := benchApp(b, "com.adobe.reader")
	d := device.New(app, device.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reset()
		if err := d.LaunchMain(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures the snapshot path that replaces the
// relaunch: capture once, then restore onto fresh devices.
func BenchmarkSnapshotRestore(b *testing.B) {
	app := benchApp(b, "com.adobe.reader")
	src := device.New(app, device.Options{})
	if err := src.LaunchMain(); err != nil {
		b.Fatal(err)
	}
	snap := src.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := device.New(app, device.Options{})
		if err := d.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

func benchApp(tb testing.TB, pkg string) *apk.App {
	tb.Helper()
	for _, row := range corpus.PaperRows() {
		if row.Package == pkg {
			app, err := corpus.BuildApp(corpus.PaperSpec(row))
			if err != nil {
				tb.Fatal(err)
			}
			return app
		}
	}
	tb.Fatalf("unknown corpus app %s", pkg)
	return nil
}
