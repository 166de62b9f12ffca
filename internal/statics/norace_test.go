//go:build !race

package statics

const raceEnabled = false
