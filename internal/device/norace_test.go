//go:build !race

package device_test

const raceEnabled = false
