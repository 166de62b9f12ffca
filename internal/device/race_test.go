//go:build race

package device_test

// raceEnabled reports a race-detector build. Its sync.Pool drops a random
// share of the objects put back, so allocation counts vary from run to run.
const raceEnabled = true
