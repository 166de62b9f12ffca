//go:build !race

package apk_test

const raceEnabled = false
