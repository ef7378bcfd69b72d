package main

import (
	"strings"
	"testing"
)

func bundle(gomaxprocs int, serial float64, warmSpeedup float64) benchFile {
	var f benchFile
	f.Schema = "btr-campaign-bench/v3"
	f.GOMAXPROCS = gomaxprocs
	f.HostCores = gomaxprocs
	f.SerialMS = serial
	f.PlanCache.ColdMS = 10
	f.PlanCache.WarmMS = 0.4
	f.PlanCache.Speedup = warmSpeedup
	f.Kernel.EventsPerSec = 10e6
	f.Kernel.LegacyEventsPerSec = 4e6
	f.Kernel.Speedup = 2.5
	f.Crypto.VerifySpeedup = 50
	f.Crypto.MemoHitRate = 0.9
	f.Crypto.CampaignSpeedup = 2.2
	f.Crypto.E4WorkShare = 0.2
	f.Live = []liveRow{{Topology: "full-mesh", Nodes: 6, Runs: 2, WorstRecoverMS: 210, BoundMS: 600, WithinR: true}}
	reconnected := true
	f.LiveProc = []liveProcRow{
		{Topology: "full-mesh", Nodes: 4, Fault: "corrupt-all", RecoveryMS: 1000, BoundMS: 2100, WithinR: true},
		{Topology: "full-mesh", Nodes: 4, Fault: "kill-restart", RecoveryMS: 1500, BoundMS: 2100, WithinR: true, Reconnected: &reconnected},
	}
	f.Churn = []churnRow{{Topology: "full-mesh", Epochs: 3, WorstSwitchMS: 25, BoundMS: 103,
		WithinR: true, CleanChurn: true, ColdReplans: 4, WarmReplans: 0}}
	f.FaultRate = faultrateSection{
		Rows: []faultrateRow{
			{Topology: "full-mesh", LambdaPerSec: 1, Arrivals: 2, WorstWindowMS: 0, BoundWindowMS: 500, Reconciled: true},
			{Topology: "full-mesh", LambdaPerSec: 4, Arrivals: 13, Detected: 3, WorstWindowMS: 99, BoundWindowMS: 500, Reconciled: true},
			{Topology: "full-mesh", LambdaPerSec: 8, Arrivals: 22, Detected: 4, Untolerated: 1, WorstWindowMS: 319, BoundWindowMS: 500, Reconciled: true},
		},
		Knees: []faultrateKnee{{Topology: "full-mesh", KneeLambdaPerSec: 4}},
	}
	f.Saturation = saturationSection{
		Rows: []saturationRowFile{{
			Topology: "full-mesh", Nodes: 8, F: 2,
			SustainableEPS: 35840, LoadEPS: 28700, LoadFraction: 0.8,
			RecoveryMS: 300, BoundMS: 603, WithinR: true,
			Delivered: 500000, Dropped: 0, Shed: 0,
		}},
	}
	f.MultiFault = multifaultSection{
		Rows: []faultrateRow{
			{Topology: "full-mesh", LambdaPerSec: 1, Arrivals: 3, Tolerated: 1, WorstWindowMS: 0, BoundWindowMS: 500, Reconciled: true},
			{Topology: "full-mesh", LambdaPerSec: 4, Arrivals: 11, Detected: 2, WorstWindowMS: 120, BoundWindowMS: 500, Reconciled: true},
			{Topology: "full-mesh", LambdaPerSec: 8, Arrivals: 24, Detected: 5, Untolerated: 1, WorstWindowMS: 301, BoundWindowMS: 500, Reconciled: true},
		},
		Knees: []faultrateKnee{{Topology: "full-mesh", KneeLambdaPerSec: 4}},
		Storms: []multifaultStormRow{{
			Name: "kill-restart+partition", Topology: "full-mesh",
			OverBudget: 6, Reconciled: 6, Flagged: true, Confined: true,
			ReconnectChecked: true, Reconnected: true,
		}},
	}
	f.ClientSLO = []clientsloRow{
		{Name: "steady", Topology: "full-mesh", Fault: "none", Sessions: 8,
			Ops: 1200, Errors: 0, P99MS: 16, MaxUnavailMS: 40, BoundMS: 3200, Within: true},
		{Name: "kill-restart", Topology: "full-mesh", Fault: "kill-restart", Sessions: 8,
			Ops: 900, Errors: 0, P99MS: 260, MaxUnavailMS: 2100, BoundMS: 3200, Within: true},
	}
	f.Scenarios = []benchScenario{
		{ID: "E1", Trials: 6, WorkMS: 1000},
		{ID: "C4", Trials: 7, WorkMS: 100},
	}
	return f
}

func hasFailure(fails []string, substr string) bool {
	for _, f := range fails {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}

func TestCompareCleanRunPasses(t *testing.T) {
	fails, _ := compare(bundle(4, 10000, 20), bundle(4, 10500, 21), 0.20, 5, 2, 2, 0, true)
	if len(fails) != 0 {
		t.Fatalf("unexpected failures: %v", fails)
	}
}

func TestCompareFlagsWallRegression(t *testing.T) {
	fails, _ := compare(bundle(4, 10000, 20), bundle(4, 13000, 20), 0.20, 5, 2, 2, 0, true)
	if !hasFailure(fails, "serial wall") {
		t.Fatalf("30%% serial regression not flagged: %v", fails)
	}
}

func TestCompareFlagsScenarioWorkRegression(t *testing.T) {
	cur := bundle(4, 10000, 20)
	cur.Scenarios[0].WorkMS = 1400 // +40% and beyond the absolute slack
	fails, _ := compare(bundle(4, 10000, 20), cur, 0.20, 5, 2, 2, 0, true)
	if !hasFailure(fails, "scenario E1") {
		t.Fatalf("scenario work regression not flagged: %v", fails)
	}
}

func TestCompareSkipsTimingAcrossCoreCounts(t *testing.T) {
	// A 1-core container baseline must not gate a 4-core CI runner.
	fails, notices := compare(bundle(1, 5000, 20), bundle(4, 30000, 20), 0.20, 5, 2, 2, 0, true)
	if len(fails) != 0 {
		t.Fatalf("cross-core timing comparison should be skipped, got %v", fails)
	}
	if len(notices) == 0 || !strings.Contains(notices[0], "gomaxprocs") {
		t.Fatalf("expected a gomaxprocs notice, got %v", notices)
	}
}

func TestCompareV1BaselineSkipsTiming(t *testing.T) {
	base := bundle(0, 17000, 0) // v1 bundles decode with gomaxprocs 0
	base.Schema = "btr-campaign-bench/v1"
	fails, notices := compare(base, bundle(4, 99999, 20), 0.20, 5, 2, 2, 0, true)
	if len(fails) != 0 {
		t.Fatalf("v1 baseline must skip timing, got %v", fails)
	}
	if len(notices) == 0 {
		t.Fatal("expected a skip notice for the v1 baseline")
	}
}

func TestCompareEnforcesWarmSpeedupFloor(t *testing.T) {
	fails, _ := compare(bundle(4, 10000, 20), bundle(4, 10000, 3.5), 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "warm speedup") {
		t.Fatalf("speedup floor not enforced: %v", fails)
	}
	// A new bundle with no plan_cache section must fail, not silently
	// waive the floor.
	fails, _ = compare(bundle(4, 10000, 20), bundle(4, 10000, 0), 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "no plan_cache") {
		t.Fatalf("missing plan_cache section not flagged: %v", fails)
	}
}

func TestCompareFlagsFailedTrialsAndMissingScenarios(t *testing.T) {
	cur := bundle(4, 10000, 20)
	cur.Scenarios[1].Failed = 2
	cur.Scenarios = cur.Scenarios[:2]
	base := bundle(4, 10000, 20)
	base.Scenarios = append(base.Scenarios, benchScenario{ID: "E9", Trials: 14, WorkMS: 900})
	fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "trials failed") {
		t.Fatalf("failed trials not flagged: %v", fails)
	}
	if !hasFailure(fails, "missing from new bundle") {
		t.Fatalf("missing scenario not flagged: %v", fails)
	}
}

func TestCompareWallDisabledByDefault(t *testing.T) {
	// Without -wall, a uniform absolute slowdown (same shares) passes —
	// absolute times are not comparable across hosts.
	fails, notices := compare(bundle(4, 10000, 20), bundle(4, 30000, 20), 0.20, 5, 2, 2, 0, false)
	if len(fails) != 0 {
		t.Fatalf("wall checks should be off by default: %v", fails)
	}
	if len(notices) == 0 || !strings.Contains(notices[0], "-wall") {
		t.Fatalf("expected a -wall notice, got %v", notices)
	}
}

func TestCompareFlagsWorkShareRegressionAcrossHosts(t *testing.T) {
	// A scenario that got *relatively* slower is flagged even when the
	// hosts (and gomaxprocs) differ and wall checks are off: shares are
	// machine-independent.
	cur := bundle(8, 99999, 20)
	cur.Scenarios[1].WorkMS = 500 // C4: 100/1100 -> 500/1500 of total
	fails, _ := compare(bundle(1, 10000, 20), cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "scenario C4 work share") {
		t.Fatalf("work-share regression not flagged: %v", fails)
	}
}

func TestCompareEnforcesKernelSpeedupFloor(t *testing.T) {
	cur := bundle(4, 10000, 20)
	cur.Kernel.Speedup = 1.4
	fails, _ := compare(bundle(4, 10000, 20), cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "kernel throughput") {
		t.Fatalf("kernel speedup floor not enforced: %v", fails)
	}
	cur.Kernel.Speedup = 0
	fails, _ = compare(bundle(4, 10000, 20), cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "no kernel throughput") {
		t.Fatalf("missing kernel section not flagged: %v", fails)
	}
}

func TestCompareEnforcesCryptoFloors(t *testing.T) {
	cur := bundle(4, 10000, 20)
	cur.Crypto.VerifySpeedup = 1.3
	fails, _ := compare(bundle(4, 10000, 20), cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "verify memo speedup") {
		t.Fatalf("verify memo floor not enforced: %v", fails)
	}
	cur = bundle(4, 10000, 20)
	cur.Crypto.CampaignSpeedup = 1.1
	fails, _ = compare(bundle(4, 10000, 20), cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "uncached run") {
		t.Fatalf("crypto campaign floor not enforced: %v", fails)
	}
	cur = bundle(4, 10000, 20)
	cur.Crypto.VerifySpeedup = 0
	fails, _ = compare(bundle(4, 10000, 20), cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "no crypto fast-path") {
		t.Fatalf("missing crypto section not flagged: %v", fails)
	}
	// A v3 baseline (no crypto section) still gates the new bundle.
	base := bundle(4, 10000, 20)
	base.Crypto.VerifySpeedup = 0
	base.Crypto.CampaignSpeedup = 0
	fails, _ = compare(base, bundle(4, 10000, 20), 0.20, 5, 2, 2, 0, false)
	if len(fails) != 0 {
		t.Fatalf("v3 baseline should not fail a healthy v4 bundle: %v", fails)
	}
}

func TestCompareGatesE4WorkShareTightly(t *testing.T) {
	// E4's share grows from 20% to 26% — past 20% relative growth but
	// within the generic 2-point absolute slack. The crypto canary gate
	// must still flag it.
	base := bundle(4, 10000, 20)
	base.Scenarios = append(base.Scenarios, benchScenario{ID: "E4", Trials: 3, WorkMS: 275})
	cur := bundle(4, 10000, 20)
	cur.Scenarios = append(cur.Scenarios, benchScenario{ID: "E4", Trials: 3, WorkMS: 370})
	fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "scenario E4 work share") {
		t.Fatalf("E4 share creep not flagged: %v", fails)
	}
}

func TestCompareEnforcesLiveWithinR(t *testing.T) {
	cur := bundle(4, 10000, 20)
	cur.Live[0] = liveRow{Topology: "ring", Nodes: 8, Runs: 2, WorstRecoverMS: 950, BoundMS: 600, WithinR: false}
	fails, _ := compare(bundle(4, 10000, 20), cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "live soak ring/8") {
		t.Fatalf("live bound violation not flagged: %v", fails)
	}
	cur.Live = nil
	fails, _ = compare(bundle(4, 10000, 20), cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "no live soak") {
		t.Fatalf("missing live section not flagged: %v", fails)
	}
}

func TestCompareGatesLiveProc(t *testing.T) {
	base := bundle(4, 10000, 20)
	// Missing liveproc section fails: v6 bundles must carry the
	// multi-process soak.
	cur := bundle(4, 10000, 20)
	cur.LiveProc = nil
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "no multi-process deployment rows") {
		t.Fatalf("missing liveproc rows not flagged: %v", fails)
	}
	// A recovery beyond the bound fails.
	cur = bundle(4, 10000, 20)
	cur.LiveProc[0].WithinR = false
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "multi-process full-mesh/corrupt-all") {
		t.Fatalf("liveproc bound violation not flagged: %v", fails)
	}
	// A transport-visible repair that never re-established fails; a null
	// verdict (fault with no reconnect obligation) does not.
	cur = bundle(4, 10000, 20)
	broken := false
	cur.LiveProc[1].Reconnected = &broken
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "did not re-establish") {
		t.Fatalf("failed reconnect not flagged: %v", fails)
	}
	cur.LiveProc[1].Reconnected = nil
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); len(fails) != 0 {
		t.Fatalf("null reconnect verdict must not gate: %v", fails)
	}
}

func TestCompareGatesFaultRate(t *testing.T) {
	base := bundle(4, 10000, 20)
	// Missing faultrate section fails: v7 bundles must carry the sweep.
	cur := bundle(4, 10000, 20)
	cur.FaultRate = faultrateSection{}
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "no fault-rate sweep") {
		t.Fatalf("missing faultrate section not flagged: %v", fails)
	}
	// A topology whose knee collapsed to zero fails.
	cur = bundle(4, 10000, 20)
	cur.FaultRate.Knees[0].KneeLambdaPerSec = 0
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "knee λ=0") {
		t.Fatalf("zero knee not flagged: %v", fails)
	}
	// A silent miss at/below the knee fails; the same count above the
	// knee is informational only.
	cur = bundle(4, 10000, 20)
	cur.FaultRate.Rows[1].Untolerated = 2
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "untolerated (silent)") {
		t.Fatalf("below-knee silent miss not flagged: %v", fails)
	}
	cur = bundle(4, 10000, 20)
	cur.FaultRate.Rows[2].Untolerated = 5 // λ=8 > knee 4: above-knee rows may miss
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); len(fails) != 0 {
		t.Fatalf("above-knee row must not gate: %v", fails)
	}
	// An unreconciled degraded window at/below the knee fails.
	cur = bundle(4, 10000, 20)
	cur.FaultRate.Rows[1].Reconciled = false
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "reconcile bound") {
		t.Fatalf("below-knee unreconciled window not flagged: %v", fails)
	}
	// A row whose topology has no knee entry fails.
	cur = bundle(4, 10000, 20)
	cur.FaultRate.Rows = append(cur.FaultRate.Rows, faultrateRow{Topology: "ring", LambdaPerSec: 1, Reconciled: true})
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "without a knee entry") {
		t.Fatalf("knee-less row not flagged: %v", fails)
	}
}

func TestCompareGatesSaturation(t *testing.T) {
	base := bundle(4, 10000, 20)
	// Missing saturation section fails: v8 bundles must carry it.
	cur := bundle(4, 10000, 20)
	cur.Saturation = saturationSection{}
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "no saturation section") {
		t.Fatalf("missing saturation section not flagged: %v", fails)
	}
	// A collapsed sustainable rate, an under-80% operating point, and an
	// out-of-bound loaded recovery all fail.
	cur = bundle(4, 10000, 20)
	cur.Saturation.Rows[0].SustainableEPS = 0
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "no sustainable event rate") {
		t.Fatalf("zero sustainable rate not flagged: %v", fails)
	}
	cur = bundle(4, 10000, 20)
	cur.Saturation.Rows[0].LoadFraction = 0.5
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "below the 80% operating point") {
		t.Fatalf("under-load recovery not flagged: %v", fails)
	}
	cur = bundle(4, 10000, 20)
	cur.Saturation.Rows[0].WithinR = false
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "exceeded bound R") {
		t.Fatalf("loaded-recovery bound violation not flagged: %v", fails)
	}
}

func TestCompareGatesMultiFault(t *testing.T) {
	base := bundle(4, 10000, 20)
	// Missing multifault section fails: v9 bundles must carry it.
	cur := bundle(4, 10000, 20)
	cur.MultiFault = multifaultSection{}
	fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false)
	if !hasFailure(fails, "no multi-fault sweep") {
		t.Fatalf("missing multifault sweep not flagged: %v", fails)
	}
	if !hasFailure(fails, "no multi-fault storms") {
		t.Fatalf("missing multifault storms not flagged: %v", fails)
	}
	// The sweep obeys the fault-rate invariants: a collapsed knee fails.
	cur = bundle(4, 10000, 20)
	cur.MultiFault.Knees[0].KneeLambdaPerSec = 0
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "multifault full-mesh: knee λ=0") {
		t.Fatalf("zero multifault knee not flagged: %v", fails)
	}
	// A silent miss at/below the knee fails; above the knee it is
	// informational only.
	cur = bundle(4, 10000, 20)
	cur.MultiFault.Rows[1].Untolerated = 1
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "multifault full-mesh λ=4") {
		t.Fatalf("below-knee multifault silent miss not flagged: %v", fails)
	}
	cur = bundle(4, 10000, 20)
	cur.MultiFault.Rows[2].Untolerated = 9 // λ=8 > knee 4
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); len(fails) != 0 {
		t.Fatalf("above-knee multifault row must not gate: %v", fails)
	}
	// An unreconciled window at/below the knee fails.
	cur = bundle(4, 10000, 20)
	cur.MultiFault.Rows[0].Reconciled = false
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "multifault full-mesh λ=1") {
		t.Fatalf("below-knee unreconciled multifault window not flagged: %v", fails)
	}
	// Storm invariants: silent (unflagged), unreconciled, unconfined,
	// unchecked and unreconnected storms all fail.
	for name, mutate := range map[string]func(*multifaultStormRow){
		"raised no over-budget verdict":  func(s *multifaultStormRow) { s.Flagged = false },
		"no node reconciled":             func(s *multifaultStormRow) { s.Reconciled = 0 },
		"outside the fault-attributable": func(s *multifaultStormRow) { s.Confined = false },
		"was reconnect-checked":          func(s *multifaultStormRow) { s.ReconnectChecked = false },
		"did not re-establish":           func(s *multifaultStormRow) { s.Reconnected = false },
	} {
		cur = bundle(4, 10000, 20)
		mutate(&cur.MultiFault.Storms[0])
		if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, name) {
			t.Fatalf("storm violation %q not flagged: %v", name, fails)
		}
	}
}

func TestCompareGatesClientSLO(t *testing.T) {
	base := bundle(4, 10000, 20)
	// Missing clientslo section fails: v10 bundles must carry it.
	cur := bundle(4, 10000, 20)
	cur.ClientSLO = nil
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "no client-SLO rows") {
		t.Fatalf("missing clientslo rows not flagged: %v", fails)
	}
	// A row with zero completed operations gates nothing and fails.
	cur = bundle(4, 10000, 20)
	cur.ClientSLO[0].Ops = 0
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "no client operations") {
		t.Fatalf("zero-op clientslo row not flagged: %v", fails)
	}
	// Any client-visible error fails — the steady row's error-free p99 in
	// particular.
	cur = bundle(4, 10000, 20)
	cur.ClientSLO[0].Errors = 3
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "client-visible error") {
		t.Fatalf("clientslo errors not flagged: %v", fails)
	}
	// Unavailability beyond the recorded bound fails, as does a missing
	// bound (nothing to judge against).
	cur = bundle(4, 10000, 20)
	cur.ClientSLO[1].MaxUnavailMS = 5000
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "exceeded the") {
		t.Fatalf("clientslo unavailability breach not flagged: %v", fails)
	}
	cur = bundle(4, 10000, 20)
	cur.ClientSLO[1].BoundMS = 0
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "no recorded unavailability bound") {
		t.Fatalf("missing clientslo bound not flagged: %v", fails)
	}
	// A row the emitter itself judged out of SLO fails even if the
	// mirrored numbers look consistent.
	cur = bundle(4, 10000, 20)
	cur.ClientSLO[1].Within = false
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "within=false") {
		t.Fatalf("clientslo within=false not flagged: %v", fails)
	}
}

func TestCompareGatesChurn(t *testing.T) {
	base := bundle(4, 10000, 20)
	// Missing churn section fails.
	cur := bundle(4, 10000, 20)
	cur.Churn = nil
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "no membership-churn rows") {
		t.Fatalf("missing churn rows not flagged: %v", fails)
	}
	// A warm replay that synthesized plans fails at the default ceiling.
	cur = bundle(4, 10000, 20)
	cur.Churn[0].WarmReplans = 2
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "warm churn synthesized") {
		t.Fatalf("warm replans not gated: %v", fails)
	}
	// ...but passes under a raised ceiling.
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 2, false); hasFailure(fails, "warm churn synthesized") {
		t.Fatalf("raised warm-replan ceiling not honored: %v", fails)
	}
	// Out-of-bound recovery, dirty churn, missing epochs, and a switch
	// latency beyond R all fail.
	cur = bundle(4, 10000, 20)
	cur.Churn[0].WithinR = false
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "exceeded the per-epoch bound") {
		t.Fatalf("within-R violation not gated: %v", fails)
	}
	cur = bundle(4, 10000, 20)
	cur.Churn[0].CleanChurn = false
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "produced bad output") {
		t.Fatalf("dirty churn not gated: %v", fails)
	}
	cur = bundle(4, 10000, 20)
	cur.Churn[0].Epochs = 2
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "epochs activated") {
		t.Fatalf("missing epoch not gated: %v", fails)
	}
	cur = bundle(4, 10000, 20)
	cur.Churn[0].WorstSwitchMS = 500
	if fails, _ := compare(base, cur, 0.20, 5, 2, 2, 0, false); !hasFailure(fails, "epoch-switch latency") {
		t.Fatalf("switch latency beyond R not gated: %v", fails)
	}
}
