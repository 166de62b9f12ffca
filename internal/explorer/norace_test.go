//go:build !race

package explorer

const raceEnabled = false
