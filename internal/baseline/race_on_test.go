//go:build race

package baseline

// raceEnabled widens the allocation pins: under the race detector
// sync.Pool drops items at random, so sched.Build's pooled scratch is
// sometimes rebuilt and the counts vary from run to run.
const raceEnabled = true
