//go:build race

package apk_test

// raceEnabled reports a race-detector build, whose instrumentation moves
// allocation counts.
const raceEnabled = true
