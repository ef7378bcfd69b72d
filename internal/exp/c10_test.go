package exp

import (
	"strings"
	"testing"

	"btr/internal/campaign"
	"btr/internal/faultrate"
)

// renderC10Sweep runs the deterministic sweep half of C10 at the given
// worker count and renders its table (the storm half is wall-clock and
// exempt, like every live family).
func renderC10Sweep(t *testing.T, workers int) string {
	t.Helper()
	res := campaign.Run([]campaign.Scenario{c10SweepOnlyScenario()}, campaign.Options{
		Workers: workers,
		Params:  campaign.Params{Seed: 1, Quick: true},
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

// TestC10SweepDeterministicAcrossWorkers pins the extended-catalog
// arrival process into the same byte-identity guarantee as C8: the same
// seed produces byte-identical sweep tables at -workers=1 and
// -workers=4.
func TestC10SweepDeterministicAcrossWorkers(t *testing.T) {
	serial := renderC10Sweep(t, 1)
	parallel := renderC10Sweep(t, 4)
	if serial != parallel {
		t.Fatalf("workers=1 and workers=4 disagree:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
			serial, parallel)
	}
	if !strings.Contains(serial, "knee") {
		t.Fatal("C10 sweep table carries no knee note")
	}
}

// TestC10SweepDrawsExtendedCatalogOnly: the sweep's schedule must draw
// exclusively the non-catalog behaviors, target sinks for the
// sink-bound ones, and carry the delay hold.
func TestC10SweepDrawsExtendedCatalogOnly(t *testing.T) {
	extended := map[string]bool{}
	for _, b := range faultrate.ExtendedCatalog() {
		extended[b] = true
	}
	row, err := runC8Case(nil, c8Cases(campaign.Params{Quick: true})[0], 8, 5, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if row.Arrivals == 0 {
		t.Fatal("no arrivals: λ=8 sweep exercises nothing")
	}
	if row.Untolerated != 0 {
		t.Fatalf("%d untolerated period(s): non-catalog damage outside every tolerated span and degraded window", row.Untolerated)
	}
}

// TestC10CleanBelowKnee: at the smallest swept rate the non-catalog
// behaviors must be absorbed silently — no silent misses, every
// degraded window (if any) reconciled.
func TestC10CleanBelowKnee(t *testing.T) {
	row, err := runC8Case(nil, c8Cases(campaign.Params{Quick: true})[0], 0.5, 5, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if row.Untolerated != 0 {
		t.Fatalf("%d untolerated period(s) at λ=0.5", row.Untolerated)
	}
	if !row.Reconciled {
		t.Fatalf("worst degraded window %v exceeded the %v bound at λ=0.5", row.WorstWindow, row.Bound)
	}
}
