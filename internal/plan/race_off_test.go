//go:build !race

package plan

// raceEnabled: see race_on_test.go.
const raceEnabled = false
