//go:build !race

package sched

// raceEnabled: see race_on_test.go.
const raceEnabled = false
