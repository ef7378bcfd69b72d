// Package campaign runs deterministic, sharded Monte Carlo
// fault-injection campaigns.
//
// A campaign is a set of Scenarios. Each Scenario declares its trials —
// independent units of work such as "build one deployment, inject one
// fault pattern, simulate, measure" — and an aggregation step that folds
// the per-trial results into metrics tables. The runner (see Run) fans
// trials out across a worker pool; because
//
//   - every trial owns an isolated sim.Kernel (trials never share
//     simulator state),
//   - every trial's random stream is derived by splitting the campaign
//     seed with the scenario ID and trial index (never from a shared
//     generator), and
//   - aggregation folds results in trial-index order after all trials
//     finish,
//
// the aggregated output is byte-identical regardless of worker count or
// scheduling order. A panicking trial fails that trial only: the panic is
// captured into TrialResult.Err and the rest of the campaign proceeds.
package campaign

import (
	"fmt"
	"strings"
	"time"

	"btr/internal/metrics"
	"btr/internal/plan"
	"btr/internal/sim"
)

// Params configures one campaign run. The same Params and scenario set
// always produce the same aggregated tables (see package comment).
type Params struct {
	// Seed is the campaign master seed; every trial seed is split from it.
	Seed uint64
	// Quick requests smaller sweeps (smoke runs, unit tests).
	Quick bool
	// Trials is the Monte Carlo multiplier for randomized scenario
	// families: a family that runs k random trials per sweep point at
	// Trials=1 runs k·Trials at higher settings. Values < 1 mean 1.
	Trials int
}

func (p Params) norm() Params {
	if p.Trials < 1 {
		p.Trials = 1
	}
	return p
}

// T is the per-trial context handed to TrialSpec.Run.
type T struct {
	Params
	Scenario string // owning scenario ID
	Name     string // trial name (stable across runs)
	Index    int    // trial index within the scenario
	// Strategies is the run's strategy memo, one per Run and shared by
	// all its trials: planning a context the run already planned is a
	// lookup (plan.Memo).
	Strategies *plan.Memo
	seed       uint64
	rng        *sim.RNG
}

// TrialSeed returns the trial's split seed: a deterministic function of
// (campaign seed, scenario ID, trial index) only. Trials that need
// randomness must seed from this (or use RNG), never from shared state,
// so that results do not depend on worker count.
func (t *T) TrialSeed() uint64 { return t.seed }

// RNG returns the trial's private generator, lazily seeded from
// TrialSeed.
func (t *T) RNG() *sim.RNG {
	if t.rng == nil {
		t.rng = sim.NewRNG(t.seed)
	}
	return t.rng
}

// splitSeed derives a trial seed from the campaign seed. The derivation
// (FNV-style fold of the scenario ID, golden-ratio index stride, splitmix64
// finalizer) is part of the campaign format: changing it changes every
// randomized scenario's results.
func splitSeed(campaignSeed uint64, scenario string, index int) uint64 {
	h := campaignSeed ^ 0xcbf29ce484222325
	for i := 0; i < len(scenario); i++ {
		h = (h ^ uint64(scenario[i])) * 1099511628211
	}
	h ^= uint64(index) * 0x9e3779b97f4a7c15
	h += 0x9e3779b97f4a7c15
	z := h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TrialSpec is one independent unit of work.
type TrialSpec struct {
	Name string
	// Run executes the trial and returns its payload. Returning an error
	// (or panicking) fails this trial only.
	Run func(t *T) (any, error)
}

// TrialResult is the outcome of one trial.
type TrialResult struct {
	Name    string
	Index   int
	Value   any           // payload returned by Run (nil on failure)
	Err     error         // non-nil if the trial errored or panicked
	Elapsed time.Duration // wall time of this trial (diagnostic only;
	// never feed it into Tables, or determinism is lost)
}

// Scenario is a declarative experiment: an enumeration of independent
// trials plus a fold from trial results to result tables.
type Scenario struct {
	ID     string
	Family string // "paper" for E1–E10 reproductions, "campaign" for sweeps
	Claim  string // the claim the scenario tests (printed as the header)

	// Trials enumerates the trial specs for the given parameters. It must
	// be cheap and deterministic in p.
	Trials func(p Params) []TrialSpec

	// Aggregate folds the trial results (index order, one entry per spec,
	// failed trials carry Err) into tables. It must depend only on p and
	// the payloads.
	Aggregate func(p Params, trials []TrialResult) []*metrics.Table
}

// ScenarioResult is one scenario's aggregated outcome.
type ScenarioResult struct {
	ID     string
	Family string
	Claim  string
	Tables []*metrics.Table
	Trials []TrialResult
	Failed int
	// Work is the summed wall time of the scenario's trials (total
	// compute, not elapsed wall clock).
	Work time.Duration
}

// --- aggregation helpers ----------------------------------------------------

// Value extracts a typed payload from a trial result; ok is false for
// failed trials or payloads of a different type.
func Value[P any](tr TrialResult) (P, bool) {
	var zero P
	if tr.Err != nil {
		return zero, false
	}
	v, ok := tr.Value.(P)
	return v, ok
}

// CountFailed returns the number of failed trials.
func CountFailed(trials []TrialResult) int {
	n := 0
	for _, tr := range trials {
		if tr.Err != nil {
			n++
		}
	}
	return n
}

// FailNote renders a short per-scenario failure summary suitable for a
// table note, or "" when nothing failed.
func FailNote(trials []TrialResult) string {
	failed := CountFailed(trials)
	if failed == 0 {
		return ""
	}
	for _, tr := range trials {
		if tr.Err != nil {
			return fmt.Sprintf("%d/%d trials failed (first: %s: %v)", failed, len(trials), tr.Name, FirstLine(tr.Err.Error()))
		}
	}
	return ""
}

// FirstLine truncates s at its first newline — the rendering rule for
// multi-line errors (panic stacks) in notes and bundles.
func FirstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
