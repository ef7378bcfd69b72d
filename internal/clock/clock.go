// Package clock provides the clock-synchronization substrate the paper's
// system model assumes (§2.1: "nodes have … access to a local clock"; the
// authors note that "there is a rich literature on clock synchronization
// alone" and that the assumption is reasonable for CPS hardware).
//
// Two pieces:
//
//   - DriftClock: a local oscillator with a bounded drift rate, mapping
//     true (simulation) time to local time.
//
//   - Ensemble: the Welch–Lynch fault-tolerant averaging algorithm. Every
//     sync round, each node reads every other node's clock, sorts the
//     readings, discards the f lowest and f highest (a Byzantine clock can
//     lie arbitrarily, but after discarding, the remaining extremes are
//     bracketed by correct readings), and jumps to the midpoint of the
//     remaining extremes. With n ≥ 3f+1 this keeps correct clocks within
//     a bounded skew of each other forever.
//
// The BTR runtime's static tables assume synchronized clocks; the
// watchdog margin (plan.Options.WatchdogMargin) must dominate the
// ensemble's guaranteed skew bound, which SkewBound computes.
package clock

import (
	"fmt"
	"slices"

	"btr/internal/sim"
)

// DriftClock models a local oscillator: local time advances at rate
// (1 + Drift) relative to true time, from a per-clock initial offset.
// Drift is expressed as a fraction (e.g., 50e-6 = 50 ppm, a typical cheap
// crystal).
type DriftClock struct {
	Drift  float64
	offset sim.Time // local - true at lastTrue
	// lastTrue anchors the linear segment (adjustments re-anchor).
	lastTrue sim.Time
}

// NewDriftClock returns a clock with the given drift and initial offset.
func NewDriftClock(drift float64, initialOffset sim.Time) *DriftClock {
	return &DriftClock{Drift: drift, offset: initialOffset}
}

// Read returns the local time at true time now.
func (c *DriftClock) Read(now sim.Time) sim.Time {
	elapsed := now - c.lastTrue
	return now + c.offset + sim.Time(float64(elapsed)*c.Drift)
}

// AdjustTo slews the clock so that Read(now) == target, re-anchoring the
// drift segment at now.
func (c *DriftClock) AdjustTo(now, target sim.Time) {
	c.offset = target - now
	c.lastTrue = now
}

// Ensemble synchronizes n clocks, up to f of which may be Byzantine.
type Ensemble struct {
	F      int
	Clocks []*DriftClock
	// Byzantine, if non-nil for node i, replaces i's reported reading
	// (the adversary lies about its clock, it cannot corrupt others').
	Byzantine []func(trueNow sim.Time) sim.Time
}

// NewEnsemble builds an ensemble of n clocks with drifts and offsets drawn
// deterministically from rng within ±maxDrift and ±maxOffset.
func NewEnsemble(rng *sim.RNG, n, f int, maxDrift float64, maxOffset sim.Time) *Ensemble {
	if n < 3*f+1 {
		panic(fmt.Sprintf("clock: Welch-Lynch needs n >= 3f+1 (n=%d, f=%d)", n, f))
	}
	e := &Ensemble{F: f, Byzantine: make([]func(sim.Time) sim.Time, n)}
	for i := 0; i < n; i++ {
		drift := (rng.Float64()*2 - 1) * maxDrift
		var off sim.Time
		if maxOffset > 0 {
			off = rng.Duration(2*maxOffset) - maxOffset
		}
		e.Clocks = append(e.Clocks, NewDriftClock(drift, off))
	}
	return e
}

// reading returns node i's reported clock value at true time now.
func (e *Ensemble) reading(i int, now sim.Time) sim.Time {
	if b := e.Byzantine[i]; b != nil {
		return b(now)
	}
	return e.Clocks[i].Read(now)
}

// SyncRound runs one Welch–Lynch round at true time now: every correct
// node gathers all readings (message delays bounded by propBound are
// modeled as a symmetric read error the algorithm tolerates), discards the
// F lowest and F highest, and adjusts to the midpoint of the remaining
// extremes.
func (e *Ensemble) SyncRound(now sim.Time) {
	n := len(e.Clocks)
	readings := make([]sim.Time, n)
	for i := range readings {
		readings[i] = e.reading(i, now)
	}
	for i := range e.Clocks {
		if e.Byzantine[i] != nil {
			continue // Byzantine nodes do whatever they want
		}
		sorted := append([]sim.Time(nil), readings...)
		slices.Sort(sorted)
		trimmed := sorted[e.F : n-e.F]
		mid := trimmed[0] + (trimmed[len(trimmed)-1]-trimmed[0])/2
		e.Clocks[i].AdjustTo(now, mid)
	}
}

// Skew returns the maximum difference between any two *correct* clocks at
// true time now.
func (e *Ensemble) Skew(now sim.Time) sim.Time {
	var lo, hi sim.Time
	first := true
	for i, c := range e.Clocks {
		if e.Byzantine[i] != nil {
			continue
		}
		r := c.Read(now)
		if first {
			lo, hi, first = r, r, false
			continue
		}
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	return hi - lo
}

// SkewBound returns the worst-case steady-state skew of a correct
// ensemble syncing every interval with per-clock drift at most maxDrift:
// after a round, correct clocks agree to within the round's read error;
// between rounds they diverge at most 2·maxDrift·interval.
func SkewBound(maxDrift float64, interval sim.Time) sim.Time {
	return sim.Time(2*maxDrift*float64(interval)) + 1
}

// Run simulates periodic synchronization from trueStart for rounds rounds
// at the given interval, returning the maximum observed correct-clock skew
// measured just *before* each round (the worst instant).
func (e *Ensemble) Run(trueStart, interval sim.Time, rounds int) sim.Time {
	var worst sim.Time
	now := trueStart
	for r := 0; r < rounds; r++ {
		now += interval
		if s := e.Skew(now); s > worst {
			worst = s
		}
		e.SyncRound(now)
	}
	return worst
}

// WatchdogMarginFor returns a watchdog margin that dominates clock skew
// for the given sync parameters plus a network jitter allowance — what
// plan.Options.WatchdogMargin should be set to when running on drifting
// clocks.
func WatchdogMarginFor(maxDrift float64, syncInterval, netJitter sim.Time) sim.Time {
	return 2*SkewBound(maxDrift, syncInterval) + netJitter
}
