package campaign

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"btr/internal/metrics"
	"btr/internal/plan"
)

// Options configures the runner.
type Options struct {
	Params
	// Workers is the worker-pool size; values < 1 mean 1. The aggregated
	// tables are identical for every worker count.
	Workers int
	// OnTrial, if set, observes every finished trial. It is called
	// concurrently from worker goroutines; implementations must be
	// thread-safe and must not assume any trial ordering.
	OnTrial func(scenarioID string, tr TrialResult)
}

// unit is one scheduled trial in the flattened campaign work list.
type unit struct {
	sIdx, tIdx int
	spec       TrialSpec
}

// Run executes every scenario's trials on a pool of opts.Workers
// goroutines and returns the aggregated results in scenario order.
//
// The hot path is lock-free: workers claim trials by atomically advancing
// a shared cursor over the flattened work list and write results into
// disjoint, preallocated slots, so no mutex is held while trials execute.
// Aggregation runs once per scenario after all of its trials completed,
// folding results in trial-index order — the combination that makes
// output independent of scheduling.
func Run(scenarios []Scenario, opts Options) []ScenarioResult {
	p := opts.Params.norm()
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}

	var units []unit
	slots := make([][]TrialResult, len(scenarios))
	for si, sc := range scenarios {
		specs := sc.Trials(p)
		slots[si] = make([]TrialResult, len(specs))
		for ti, spec := range specs {
			units = append(units, unit{sIdx: si, tIdx: ti, spec: spec})
		}
	}
	if workers > len(units) && len(units) > 0 {
		workers = len(units)
	}

	memo := plan.NewMemo()
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&cursor, 1)) - 1
				if i >= len(units) {
					return
				}
				u := units[i]
				sc := scenarios[u.sIdx]
				tr := runTrial(sc, p, u, memo)
				slots[u.sIdx][u.tIdx] = tr
				if opts.OnTrial != nil {
					opts.OnTrial(sc.ID, tr)
				}
			}
		}()
	}
	wg.Wait()

	out := make([]ScenarioResult, len(scenarios))
	for si, sc := range scenarios {
		trials := slots[si]
		var work time.Duration
		for _, tr := range trials {
			work += tr.Elapsed
		}
		out[si] = ScenarioResult{
			ID: sc.ID, Family: sc.Family, Claim: sc.Claim,
			Tables: aggregate(sc, p, trials),
			Trials: trials,
			Failed: CountFailed(trials),
			Work:   work,
		}
	}
	return out
}

// runTrial executes one trial, converting panics into trial failures so a
// bad scenario cannot take the campaign (or its worker) down.
func runTrial(sc Scenario, p Params, u unit, memo *plan.Memo) (res TrialResult) {
	t := &T{
		Params:     p,
		Scenario:   sc.ID,
		Name:       u.spec.Name,
		Index:      u.tIdx,
		Strategies: memo,
		seed:       splitSeed(p.Seed, sc.ID, u.tIdx),
	}
	res = TrialResult{Name: u.spec.Name, Index: u.tIdx}
	start := time.Now()
	defer func() {
		res.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			res.Value = nil
			res.Err = fmt.Errorf("campaign: trial %s/%s panicked: %v\n%s",
				sc.ID, u.spec.Name, r, debug.Stack())
		}
	}()
	v, err := u.spec.Run(t)
	res.Value, res.Err = v, err
	if err != nil {
		res.Value = nil
	}
	return res
}

// aggregate runs the scenario's fold, degrading a panicking aggregator to
// an error table rather than poisoning the whole campaign.
func aggregate(sc Scenario, p Params, trials []TrialResult) (tables []*metrics.Table) {
	defer func() {
		if r := recover(); r != nil {
			t := metrics.NewTable(fmt.Sprintf("%s: AGGREGATION FAILED", sc.ID), "error")
			t.AddRow(fmt.Sprint(r))
			tables = []*metrics.Table{t}
		}
	}()
	return sc.Aggregate(p, trials)
}
