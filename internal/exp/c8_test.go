package exp

import (
	"strings"
	"testing"

	"btr/internal/campaign"
)

// renderC8 runs the C8 scenario at the given seed and worker count and
// renders its tables.
func renderC8(t *testing.T, seed uint64, workers int) string {
	t.Helper()
	res := campaign.Run([]campaign.Scenario{C8Scenario()}, campaign.Options{
		Workers: workers,
		Params:  campaign.Params{Seed: seed, Quick: true},
	})
	var b strings.Builder
	for _, r := range res {
		for _, tr := range r.Trials {
			if tr.Err != nil {
				t.Errorf("%s/%s failed: %v", r.ID, tr.Name, tr.Err)
			}
		}
		WriteResult(&b, r)
	}
	return b.String()
}

// TestC8DeterministicAcrossWorkers pins the λ arrival process into the
// campaign determinism guarantee: the same seed produces byte-identical
// C8 tables on every run, at -workers=1 and -workers=4 alike (the
// schedule, the simulated run, and the classification are all pure
// functions of the split trial seed). Go re-randomises map order on every
// range, so repeating each seed inside one process catches any map walk
// that feeds what a node sends; the seeds are ones whose tables drifted
// when watchdogs were armed in map order.
func TestC8DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("renders C8 sixteen times")
	}
	for _, seed := range []uint64{21, 1018, 1039, 1074} {
		first := renderC8(t, seed, 1)
		if !strings.Contains(first, "knee") {
			t.Fatalf("seed %d: C8 table carries no knee note", seed)
		}
		for run, workers := range []int{4, 1, 4} {
			if got := renderC8(t, seed, workers); got != first {
				t.Fatalf("seed %d: run %d (workers=%d) differs from run 0 (workers=1):\n--- run 0 ---\n%s\n--- run %d ---\n%s",
					seed, run+1, workers, first, run+1, got)
			}
		}
	}
}

// TestC8SustainedBeyondKneeFlaggedNotSilent is the degradation
// regression: a sustained arrival rate far beyond the knee (λ=8/s
// against full-mesh/6, f=1 — quick-mode knee is 1/s) must drive the
// deployment over budget and produce *detected* bad periods — flagged
// by signed over-budget verdicts — and zero untolerated (silent)
// periods. The seed is pinned; the classification numbers are a pure
// function of it.
func TestC8SustainedBeyondKneeFlaggedNotSilent(t *testing.T) {
	row, err := runC8Case(c8Cases(campaign.Params{Quick: true})[0], 8, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if row.PeakActive <= 1 {
		t.Fatalf("peak active %d never exceeded f=1 — λ=8 run exercises no over-budget regime", row.PeakActive)
	}
	if row.Windows == 0 {
		t.Fatal("no degraded windows: over-budget verdicts never flagged the regime")
	}
	if row.Detected == 0 {
		t.Fatal("no detected periods: sustained over-budget damage left no flagged bad output")
	}
	if row.Untolerated != 0 {
		t.Fatalf("%d untolerated period(s): bad output outside every tolerated span and degraded window", row.Untolerated)
	}
}

// TestC8WithinBudgetRateIsClean: at a rate well below the knee the
// classic guarantee alone must absorb everything — no silent misses,
// and every degraded window (if the process ever stacked two episodes)
// reconciles within the bound.
func TestC8WithinBudgetRateIsClean(t *testing.T) {
	row, err := runC8Case(c8Cases(campaign.Params{Quick: true})[0], 1, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if row.Arrivals == 0 {
		t.Fatal("no arrivals: λ=1 run exercises nothing")
	}
	if row.Untolerated != 0 {
		t.Fatalf("%d untolerated period(s) at λ=1", row.Untolerated)
	}
	if !row.Reconciled {
		t.Fatalf("worst degraded window %v exceeded the %v bound at λ=1", row.WorstWindow, row.Bound)
	}
}

// TestC8KneeSearch pins the knee criterion on synthetic rows: the knee
// is the largest prefix rate with zero untolerated periods and every
// window reconciled; any break stops the walk even if later rates look
// clean again.
func TestC8KneeSearch(t *testing.T) {
	rows := []C8Row{
		{Lambda: 0.5, Reconciled: true},
		{Lambda: 1, Reconciled: true},
		{Lambda: 2, Untolerated: 3, Reconciled: true},
		{Lambda: 4, Reconciled: true}, // clean again — must not resurrect the knee
	}
	if got := C8Knee(rows); got != 1 {
		t.Fatalf("knee = %g, want 1", got)
	}
	if got := C8Knee([]C8Row{{Lambda: 0.5, Untolerated: 1, Reconciled: true}}); got != 0 {
		t.Fatalf("knee = %g, want 0 when the smallest rate already breaks", got)
	}
	if got := C8Knee([]C8Row{{Lambda: 0.5, Reconciled: false}}); got != 0 {
		t.Fatalf("knee = %g, want 0 when the smallest rate fails to reconcile", got)
	}
}
