//go:build race

package corpus

// raceEnabled reports a race-detector build, whose instrumentation moves
// allocation counts.
const raceEnabled = true
