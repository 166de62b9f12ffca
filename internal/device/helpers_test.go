package device

import (
	"strings"

	"fragdroid/internal/manifest"
)

// logRecorder collects a device's log lines through its Hook, the only way
// to read the log.
type logRecorder struct{ lines []string }

func (r *logRecorder) hook(line string) { r.lines = append(r.lines, line) }

// String joins the lines collected so far.
func (r *logRecorder) String() string { return strings.Join(r.lines, "\n") }

// take returns the lines collected since the last take.
func (r *logRecorder) take() []string {
	lines := r.lines
	r.lines = nil
	return lines
}

// receiverDecl builds a manifest receiver entry for tests.
func receiverDecl(class, action string) manifest.Receiver {
	return manifest.Receiver{
		Name: class,
		Filters: []manifest.IntentFilter{{
			Actions: []manifest.Action{{Name: action}},
		}},
	}
}
