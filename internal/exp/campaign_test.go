package exp

import (
	"os"
	"strings"
	"testing"

	"btr/internal/campaign"
	"btr/internal/live"
	"btr/internal/sig"
)

// TestMain lets this test binary double as the node-process binary: the
// C7 orchestrator re-executes os.Executable() with BTR_PROC_SPEC set,
// and MaybeRunNodeProc turns that re-execution into a deployment node
// instead of a second test run.
func TestMain(m *testing.M) {
	live.MaybeRunNodeProc()
	os.Exit(m.Run())
}

// renderAll runs every deterministic scenario (paper + campaign families;
// the live family measures real wall-clock timings and is pinned by its
// own tests instead) in quick mode with the given worker count and
// renders the aggregated tables.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	results := campaign.Run(DeterministicScenarios(), campaign.Options{
		Workers: workers,
		Params:  campaign.Params{Seed: 1, Quick: true, Trials: 1},
	})
	var b strings.Builder
	for _, r := range results {
		if r.Failed > 0 {
			for _, tr := range r.Trials {
				if tr.Err != nil {
					t.Errorf("%s/%s failed: %v", r.ID, tr.Name, tr.Err)
				}
			}
		}
		WriteResult(&b, r)
	}
	return b.String()
}

// TestCampaignDeterministicAcrossWorkers is the headline determinism
// guarantee: the full campaign — every experiment and sweep family —
// produces byte-identical aggregated tables at -workers=1 and -workers=8,
// and renders every experiment and sweep family.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaign in -short mode")
	}
	serial := renderAll(t, 1)
	t.Run("serial_matches_parallel", func(t *testing.T) {
		if parallel := renderAll(t, 8); serial != parallel {
			t.Fatalf("workers=1 and workers=8 disagree:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
				serial, parallel)
		}
	})
	t.Run("every_experiment_rendered", func(t *testing.T) {
		for _, id := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "C1", "C2", "C3"} {
			if !strings.Contains(serial, "---- "+id+":") {
				t.Errorf("campaign output missing %s", id)
			}
		}
	})
}

// TestMemosChangeNoOutputByte is the memo soundness check: the quick
// paper scenarios render byte-identical tables whether every registry
// verifies through the process-shared verify memo or recomputes every
// verification.
func TestMemosChangeNoOutputByte(t *testing.T) {
	if testing.Short() {
		t.Skip("two paper campaigns in -short mode")
	}
	render := func(memos bool) string {
		defer sig.SetMemos(sig.SetMemos(memos)) // registries capture the setting at construction
		var b strings.Builder
		for _, r := range campaign.Run(PaperScenarios(), campaign.Options{
			Workers: 1,
			Params:  campaign.Params{Seed: 1, Quick: true},
		}) {
			WriteResult(&b, r)
		}
		return b.String()
	}
	off, on := render(false), render(true)
	if off != on {
		t.Fatalf("memoized tables differ from the memo-free run:\n--- memos off ---\n%s\n--- memos on ---\n%s", off, on)
	}
}

// TestCampaignSweepsHoldBounds asserts the sweep families' claims on the
// quick configuration: every C1 schedule stays within k·R, every
// schedulable C2 topology recovers within R, every C3 ensemble stays
// within the analytic skew bound.
func TestCampaignSweepsHoldBounds(t *testing.T) {
	var sweeps []campaign.Scenario
	for _, sc := range Scenarios() {
		if sc.Family == "campaign" {
			sweeps = append(sweeps, sc)
		}
	}
	results := campaign.Run(sweeps, campaign.Options{
		Workers: 4,
		Params:  campaign.Params{Seed: 1, Quick: true, Trials: 1},
	})
	for _, r := range results {
		if r.Failed > 0 {
			for _, tr := range r.Trials {
				if tr.Err != nil {
					t.Errorf("%s/%s failed: %v", r.ID, tr.Name, tr.Err)
				}
			}
		}
		var b strings.Builder
		WriteResult(&b, r)
		if strings.Contains(b.String(), "NO") {
			t.Errorf("%s violated its bound:\n%s", r.ID, b.String())
		}
	}
}

// TestC5LiveSmoke boots the quick live soak end to end: every trial must
// complete without error (bound columns are wall-clock measurements and
// are asserted in internal/live and the verdict bundle, not here, so this
// stays meaningful under the race detector's ~10x slowdown).
func TestC5LiveSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live wall-clock soak in -short mode")
	}
	results := campaign.Run([]campaign.Scenario{c5Scenario()}, campaign.Options{
		Workers: 2,
		Params:  campaign.Params{Seed: 1, Quick: true, Trials: 1},
	})
	r := results[0]
	for _, tr := range r.Trials {
		if tr.Err != nil {
			t.Errorf("C5/%s failed: %v", tr.Name, tr.Err)
		}
	}
	var b strings.Builder
	WriteResult(&b, r)
	if !strings.Contains(b.String(), "C5: live wall-clock soak") {
		t.Errorf("C5 table missing:\n%s", b.String())
	}
}

// TestC7ProcSmoke boots the quick multi-process deployment family end to
// end: one OS process per node over real TCP sockets. Every trial must
// complete without error and with a transport-reconnect verdict where one
// applies; the recovery bounds are wall-clock measurements asserted in
// internal/live, not here.
func TestC7ProcSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process wall-clock soak in -short mode")
	}
	results := campaign.Run([]campaign.Scenario{c7Scenario()}, campaign.Options{
		Workers: 1,
		Params:  campaign.Params{Seed: 1, Quick: true, Trials: 1},
	})
	r := results[0]
	for _, tr := range r.Trials {
		if tr.Err != nil {
			t.Errorf("C7/%s failed: %v", tr.Name, tr.Err)
			continue
		}
		row, ok := campaign.Value[C7Row](tr)
		if !ok {
			t.Errorf("C7/%s: no row", tr.Name)
			continue
		}
		if row.ReconnectChecked && !row.Reconnected {
			t.Errorf("C7/%s: victim link did not re-establish on every peer", tr.Name)
		}
	}
	var b strings.Builder
	WriteResult(&b, r)
	if !strings.Contains(b.String(), "C7: multi-process TCP deployment soak") {
		t.Errorf("C7 table missing:\n%s", b.String())
	}
}

// TestC9SaturationSmoke boots the quick saturation family end to end:
// the ladder must locate a positive sustainable rate (the bottom rung is
// far below the evidence channel's modeled bandwidth, so a zero knee
// means the probe itself broke) and the loaded recovery trial must
// complete. Whether recovery landed within R is a wall-clock measurement
// gated in the verdict bundle, not here, so the test stays meaningful under
// the race detector's slowdown.
func TestC9SaturationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation wall-clock probe in -short mode")
	}
	results := campaign.Run([]campaign.Scenario{c9Scenario()}, campaign.Options{
		Workers: 1,
		Params:  campaign.Params{Seed: 1, Quick: true, Trials: 1},
	})
	r := results[0]
	for _, tr := range r.Trials {
		if tr.Err != nil {
			t.Errorf("C9/%s failed: %v", tr.Name, tr.Err)
			continue
		}
		row, ok := campaign.Value[C9Row](tr)
		if !ok {
			t.Errorf("C9/%s: no row", tr.Name)
			continue
		}
		if row.SustainableEPS <= 0 {
			t.Errorf("C9/%s: no sustainable rate located (points: %+v)", tr.Name, row.Points)
		}
		if row.LoadFraction < 0.8 {
			t.Errorf("C9/%s: loaded recovery ran at fraction %.2f, want >= 0.8", tr.Name, row.LoadFraction)
		}
	}
	var b strings.Builder
	WriteResult(&b, r)
	if !strings.Contains(b.String(), "C9: saturation ladder") || !strings.Contains(b.String(), "C9: recovery under load") {
		t.Errorf("C9 tables missing:\n%s", b.String())
	}
}

// TestC6ChurnHoldsBounds runs the full (non-quick) churn family and
// asserts the acceptance invariant: on all five topology families,
// every epoch activates, recovery stays within the per-epoch bound
// across every epoch boundary, and churn alone produces no bad output.
func TestC6ChurnHoldsBounds(t *testing.T) {
	results := campaign.Run([]campaign.Scenario{c6Scenario()}, campaign.Options{
		Workers: 4,
		Params:  campaign.Params{Seed: 1, Quick: false, Trials: 1},
	})
	r := results[0]
	if r.Failed > 0 {
		for _, tr := range r.Trials {
			if tr.Err != nil {
				t.Fatalf("%s failed: %v", tr.Name, tr.Err)
			}
		}
	}
	if len(r.Trials) != 5 {
		t.Fatalf("C6 ran %d topology families, want 5", len(r.Trials))
	}
	for _, tr := range r.Trials {
		row, ok := campaign.Value[C6Row](tr)
		if !ok {
			t.Fatalf("%s: no row", tr.Name)
		}
		if row.Epochs != 3 {
			t.Errorf("%s: %d epochs activated, want 3", tr.Name, row.Epochs)
		}
		if !row.WithinR {
			t.Errorf("%s: recovery exceeded the epoch-aware bound (worst %v vs %v)",
				tr.Name, row.WorstRecovery, row.WorstBound)
		}
		if !row.CleanChurn {
			t.Errorf("%s: churn produced bad output outside fault windows", tr.Name)
		}
		if row.WorstSwitch <= 0 || row.WorstSwitch > row.WorstBound {
			t.Errorf("%s: epoch-switch latency %v outside (0, R=%v]", tr.Name, row.WorstSwitch, row.WorstBound)
		}
	}
}
