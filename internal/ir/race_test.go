//go:build race

package ir

// raceEnabled reports a race-detector build, whose instrumentation moves
// allocation counts.
const raceEnabled = true
