//go:build !race

package baseline

// raceEnabled: see race_on_test.go.
const raceEnabled = false
