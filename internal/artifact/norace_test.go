//go:build !race

package artifact

const raceEnabled = false
