//go:build !race

package btr

// raceEnabled: see race_on_test.go.
const raceEnabled = false
