package session

import "fragdroid/internal/apk"

// SnapshotMemo does nothing: every test case replays its route from launch.
//
// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
type SnapshotMemo struct{}

// NewSnapshotMemo returns a memo that does nothing.
//
// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
func NewSnapshotMemo(int) *SnapshotMemo { return &SnapshotMemo{} }

// AttachStore does nothing.
//
// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
func (*SnapshotMemo) AttachStore(any) {}

// Flush does nothing and returns nil.
//
// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
func (*SnapshotMemo) Flush() error { return nil }

// ReleaseApp does nothing and returns nil.
//
// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
func (*SnapshotMemo) ReleaseApp(*apk.App) error { return nil }

// DiskStats always reports zeros.
//
// Deprecated: ignored; the snapshot memo was deleted. Kept only until the benchmark driver stops calling it.
func (*SnapshotMemo) DiskStats() (hits, misses, writes int) { return 0, 0, 0 }
