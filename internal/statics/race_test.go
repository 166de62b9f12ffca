//go:build race

package statics

// raceEnabled reports a race-detector build, whose instrumentation moves
// allocation counts.
const raceEnabled = true
