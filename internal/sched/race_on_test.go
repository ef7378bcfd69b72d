//go:build race

package sched

// raceEnabled widens the allocation pin: under the race detector
// sync.Pool drops items at random, so Build's pooled scratch is
// sometimes rebuilt and the counts vary from run to run.
const raceEnabled = true
