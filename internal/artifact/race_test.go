//go:build race

package artifact

// raceEnabled reports a race-detector build, whose instrumentation moves
// allocation counts.
const raceEnabled = true
