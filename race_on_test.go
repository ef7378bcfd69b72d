//go:build race

package btr

// raceEnabled skips the allocation ledger: the race detector's
// instrumentation allocates, and sync.Pool drops items at random.
const raceEnabled = true
