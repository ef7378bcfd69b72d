package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// rngScenario exercises the split-seed path: every trial draws from its
// private generator and reports the draws, so any cross-trial RNG sharing
// or order dependence would change the aggregate.
func rngScenario(id string, nTrials int) Scenario {
	return Scenario{
		ID: id, Family: "test", Claim: "rng trials are worker-count independent",
		Trials: func(p Params) []TrialSpec {
			var specs []TrialSpec
			for i := 0; i < nTrials; i++ {
				i := i
				specs = append(specs, TrialSpec{Name: fmt.Sprintf("t%d", i), Run: func(t *T) (any, error) {
					rng := t.RNG()
					sum := uint64(0)
					for j := 0; j < 100; j++ {
						sum += rng.Uint64() % 1000
					}
					return sum, nil
				}})
			}
			return specs
		},
		Aggregate: func(p Params, trials []TrialResult) []*metrics.Table {
			t := metrics.NewTable(id, "trial", "sum")
			for _, tr := range trials {
				v, _ := Value[uint64](tr)
				t.AddRow(tr.Name, fmt.Sprint(v))
			}
			return []*metrics.Table{t}
		},
	}
}

func render(results []ScenarioResult) string {
	var b strings.Builder
	for _, r := range results {
		for _, t := range r.Tables {
			b.WriteString(t.String())
		}
	}
	return b.String()
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	scens := []Scenario{rngScenario("S1", 13), rngScenario("S2", 7), rngScenario("S3", 1)}
	p := Params{Seed: 42}
	var outputs []string
	for _, workers := range []int{1, 2, 4, 8, 64} {
		res := Run(scens, Options{Workers: workers, Params: p})
		outputs = append(outputs, render(res))
	}
	for i, out := range outputs[1:] {
		if out != outputs[0] {
			t.Errorf("workers=%d output differs from workers=1:\n%s\nvs\n%s",
				[]int{2, 4, 8, 64}[i], out, outputs[0])
		}
	}
}

func TestSeedChangesResults(t *testing.T) {
	scens := []Scenario{rngScenario("S1", 5)}
	a := render(Run(scens, Options{Workers: 2, Params: Params{Seed: 1}}))
	b := render(Run(scens, Options{Workers: 2, Params: Params{Seed: 2}}))
	if a == b {
		t.Error("different campaign seeds produced identical results")
	}
}

func TestSplitSeedStable(t *testing.T) {
	// The derivation is part of the campaign format; a change silently
	// invalidates every recorded campaign result.
	if got := splitSeed(1, "E1", 0); got != splitSeed(1, "E1", 0) {
		t.Fatal("splitSeed not pure")
	}
	seen := map[uint64]string{}
	for _, sc := range []string{"E1", "E2", "C1"} {
		for i := 0; i < 100; i++ {
			s := splitSeed(7, sc, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s/%d vs %s", sc, i, prev)
			}
			seen[s] = fmt.Sprintf("%s/%d", sc, i)
		}
	}
}

// TestPanickingTrialFailsTrialNotCampaign is the worker-pool hardening
// contract: a panicking scenario trial must be captured as that trial's
// failure, every other trial must still run, and no worker goroutine may
// leak.
func TestPanickingTrialFailsTrialNotCampaign(t *testing.T) {
	before := runtime.NumGoroutine()
	sc := Scenario{
		ID: "PANIC", Family: "test", Claim: "panics are contained",
		Trials: func(p Params) []TrialSpec {
			var specs []TrialSpec
			for i := 0; i < 12; i++ {
				i := i
				specs = append(specs, TrialSpec{Name: fmt.Sprintf("t%d", i), Run: func(tr *T) (any, error) {
					if i == 5 {
						panic("injected scenario panic")
					}
					if i == 7 {
						return nil, errors.New("plain failure")
					}
					return i, nil
				}})
			}
			return specs
		},
		Aggregate: func(p Params, trials []TrialResult) []*metrics.Table {
			tab := metrics.NewTable("PANIC", "trial", "ok")
			for _, tr := range trials {
				tab.AddRow(tr.Name, fmt.Sprint(tr.Err == nil))
			}
			return []*metrics.Table{tab}
		},
	}
	res := Run([]Scenario{sc}, Options{Workers: 8, Params: Params{Seed: 1}})
	if len(res) != 1 {
		t.Fatalf("campaign died: %d results", len(res))
	}
	r := res[0]
	if r.Failed != 2 {
		t.Errorf("Failed = %d, want 2 (one panic, one error)", r.Failed)
	}
	for i, tr := range r.Trials {
		switch i {
		case 5:
			if tr.Err == nil || !strings.Contains(tr.Err.Error(), "panicked") {
				t.Errorf("trial 5: err = %v, want captured panic", tr.Err)
			}
			if tr.Value != nil {
				t.Errorf("trial 5: value should be nil after panic")
			}
		case 7:
			if tr.Err == nil || tr.Err.Error() != "plain failure" {
				t.Errorf("trial 7: err = %v", tr.Err)
			}
		default:
			if tr.Err != nil {
				t.Errorf("trial %d: unexpected failure %v", i, tr.Err)
			}
			if v, ok := Value[int](tr); !ok || v != i {
				t.Errorf("trial %d: payload %v", i, tr.Value)
			}
		}
	}
	// Workers must have exited; allow the runtime a moment to reap them.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

func TestPanickingAggregateDegrades(t *testing.T) {
	sc := Scenario{
		ID: "AGGPANIC", Family: "test", Claim: "aggregate panics degrade",
		Trials: func(p Params) []TrialSpec {
			return []TrialSpec{{Name: "t0", Run: func(tr *T) (any, error) { return 1, nil }}}
		},
		Aggregate: func(p Params, trials []TrialResult) []*metrics.Table {
			panic("aggregate bug")
		},
	}
	res := Run([]Scenario{sc}, Options{Workers: 2, Params: Params{Seed: 1}})
	if len(res) != 1 || len(res[0].Tables) != 1 {
		t.Fatalf("unexpected results: %+v", res)
	}
	if !strings.Contains(res[0].Tables[0].Title, "AGGREGATION FAILED") {
		t.Errorf("missing degradation table: %q", res[0].Tables[0].Title)
	}
}

func TestOnTrialObservesEveryTrial(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	sc := rngScenario("S1", 20)
	Run([]Scenario{sc}, Options{
		Workers: 4, Params: Params{Seed: 1},
		OnTrial: func(id string, tr TrialResult) {
			mu.Lock()
			seen[fmt.Sprintf("%s/%s", id, tr.Name)]++
			mu.Unlock()
		},
	})
	if len(seen) != 20 {
		t.Errorf("OnTrial saw %d trials, want 20", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("trial %s observed %d times", k, n)
		}
	}
}

func TestEmptyCampaign(t *testing.T) {
	res := Run(nil, Options{Workers: 4, Params: Params{Seed: 1}})
	if len(res) != 0 {
		t.Errorf("expected no results, got %d", len(res))
	}
	sc := Scenario{
		ID: "EMPTY", Family: "test", Claim: "no trials",
		Trials:    func(p Params) []TrialSpec { return nil },
		Aggregate: func(p Params, trials []TrialResult) []*metrics.Table { return nil },
	}
	res = Run([]Scenario{sc}, Options{Workers: 4, Params: Params{Seed: 1}})
	if len(res) != 1 || res[0].Failed != 0 {
		t.Errorf("empty scenario mishandled: %+v", res)
	}
}

func TestBundleShape(t *testing.T) {
	scens := []Scenario{rngScenario("S1", 3)}
	opts := Options{Workers: 2, Params: Params{Seed: 9, Trials: 2}}
	res := Run(scens, opts)
	b := NewBundle(opts, 123*time.Millisecond, res)
	if b.Seed != 9 || b.Workers != 2 || b.Trials != 2 {
		t.Errorf("bundle meta wrong: %+v", b)
	}
	if len(b.Scenarios) != 1 || len(b.Scenarios[0].Trials) != 3 || len(b.Scenarios[0].Tables) != 1 {
		t.Fatalf("bundle shape wrong: %+v", b.Scenarios)
	}
	var sb strings.Builder
	if err := b.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	for _, want := range []string{`"seed": 9`, `"scenarios"`, `"tables"`, `"rows"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, sb.String())
		}
	}
}

// TestStrategyMemoIsRunScoped: every trial of one Run sees the same
// strategy memo and another Run a fresh one, and K trials planning one
// context on four workers all get the one strategy a single build made
// (each plan.Build returns a new *Strategy).
func TestStrategyMemoIsRunScoped(t *testing.T) {
	const k = 12
	type seen struct {
		memo *plan.Memo
		s    *plan.Strategy
	}
	sc := Scenario{
		ID: "M", Family: "test", Claim: "one strategy per context per run",
		Trials: func(Params) []TrialSpec {
			specs := make([]TrialSpec, k)
			for i := range specs {
				specs[i] = TrialSpec{Name: fmt.Sprint(i), Run: func(t *T) (any, error) {
					s, err := t.Strategies.Build(flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
						network.FullMesh(4, 20_000_000, 50*sim.Microsecond), plan.DefaultOptions(1, 500*sim.Millisecond))
					return seen{t.Strategies, s}, err
				}}
			}
			return specs
		},
		Aggregate: func(Params, []TrialResult) []*metrics.Table { return nil },
	}
	run := func() seen {
		res := Run([]Scenario{sc}, Options{Workers: 4})
		first, ok := Value[seen](res[0].Trials[0])
		if !ok || first.memo == nil || first.s == nil {
			t.Fatalf("trial 0: %v", res[0].Trials[0].Err)
		}
		for _, tr := range res[0].Trials[1:] {
			if v, _ := Value[seen](tr); v != first {
				t.Fatalf("trial %s saw memo %p strategy %p, trial 0 %p %p", tr.Name, v.memo, v.s, first.memo, first.s)
			}
		}
		return first
	}
	if a, b := run(), run(); a.memo == b.memo || a.s == b.s {
		t.Error("two runs shared a strategy memo")
	}
}
