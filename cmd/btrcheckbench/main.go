// Command btrcheckbench gates CI on the tracked perf trajectory: it
// compares a freshly generated BENCH_campaign.json against the committed
// baseline and exits non-zero on regression.
//
//	btrcheckbench -baseline BENCH_campaign.json -new BENCH_new.json
//	              [-tolerance 0.20] [-min-warm-speedup 5]
//	              [-min-kernel-speedup 2] [-min-crypto-speedup 2]
//	              [-max-warm-replans 0]
//
// Rules:
//
//   - structure always checked: every baseline scenario must still run,
//     and no trial may fail in the new bundle;
//   - ratio metrics always checked, because they are machine-independent
//     to first order: the warm-plan-cache speedup, the kernel-vs-legacy
//     throughput ratio, the cached-vs-uncached verify ratio
//     (-min-crypto-speedup) and the memo-on vs memo-off campaign ratio
//     must stay above their acceptance floors, and no scenario's share
//     of the total serial compute may grow by more than the tolerance (a
//     subsystem that got relatively slower shows up in its share no
//     matter how fast the host is). E4, the crypto-bound scenario, is
//     the fast path's canary: its share is gated without the absolute
//     slack;
//   - invariant sections always checked: every live/liveproc row within
//     R, churn clean with zero warm replans, the fault-rate sweep
//     (schema v7) non-empty with a positive knee per topology and zero
//     untolerated periods (reconciled windows) at and below each knee,
//     and the saturation section (schema v8): every C9 row must carry a
//     positive sustainable event rate with its loaded recovery (flood at
//     >= 80% of that rate) still within R;
//     the multi-fault section (schema v9) repeats the sweep invariants
//     over the extended catalog and requires every > f storm flagged,
//     confined and reconnected; the client-SLO section (schema v10)
//     must be non-empty with every row error-free and its client-visible
//     unavailability within the recorded bound;
//   - absolute wall-clock comparisons (campaign serial wall,
//     per-scenario work, plan-cache cold synthesis) are meaningful only
//     between runs on the same host at the same parallelism, so they
//     require the explicit -wall flag *and* matching GOMAXPROCS — a
//     single-core container baseline must never gate a differently
//     shaped CI runner. Bundles older than schema v2 carry no
//     gomaxprocs and always skip them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// benchFile mirrors the BENCH_campaign.json schema (bench_test.go).
// Unknown fields are ignored, so v1 bundles (no gomaxprocs, no
// plan_cache) decode with zero values.
type benchFile struct {
	Schema     string  `json:"schema"`
	Quick      bool    `json:"quick"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	HostCores  int     `json:"host_cores"`
	SerialMS   float64 `json:"serial_wall_ms"`

	PlanCache struct {
		ColdMS  float64 `json:"cold_full_synthesis_ms"`
		WarmMS  float64 `json:"warm_cache_ms"`
		Speedup float64 `json:"speedup_warm"`
	} `json:"plan_cache"`

	Kernel struct {
		EventsPerSec       float64 `json:"events_per_sec"`
		LegacyEventsPerSec float64 `json:"legacy_events_per_sec"`
		Speedup            float64 `json:"speedup"`
	} `json:"kernel"`

	Crypto struct {
		VerifySpeedup   float64 `json:"speedup_verify"`
		MemoHitRate     float64 `json:"memo_hit_rate"`
		CampaignSpeedup float64 `json:"speedup_campaign"`
		E4WorkShare     float64 `json:"e4_work_share"`
	} `json:"crypto"`

	Live []liveRow `json:"live"`

	LiveProc []liveProcRow `json:"liveproc"`

	Churn []churnRow `json:"churn"`

	FaultRate faultrateSection `json:"faultrate"`

	Saturation saturationSection `json:"saturation"`

	MultiFault multifaultSection `json:"multifault"`

	ClientSLO []clientsloRow `json:"clientslo"`

	Scenarios []benchScenario `json:"scenarios"`
}

// clientsloRow is one C11 client-SLO entry (schema v10): the verdict a
// load of epoch-aware quorum-client sessions measured from outside an
// orchestrated multi-process deployment — steady state or a ≤ f process
// fault landing mid-run. Latencies are wall-clock and machine-bound;
// the invariants (zero client-visible errors, max unavailability within
// the recorded bound) gate everywhere.
type clientsloRow struct {
	Name         string  `json:"name"`
	Topology     string  `json:"topology"`
	Fault        string  `json:"fault"`
	Sessions     int     `json:"sessions"`
	Ops          uint64  `json:"ops"`
	Errors       uint64  `json:"errors"`
	P99MS        float64 `json:"p99_ms"`
	MaxUnavailMS float64 `json:"max_unavail_ms"`
	BoundMS      float64 `json:"bound_ms"`
	Within       bool    `json:"within"`
}

// saturationSection is the C9 saturation probe (schema v8): sustainable
// events/sec per topology and a recovery measurement under flood at
// >= 80% of it.
type saturationSection struct {
	Rows []saturationRowFile `json:"rows"`
}

type saturationRowFile struct {
	Topology       string  `json:"topology"`
	Nodes          int     `json:"nodes"`
	F              int     `json:"f"`
	SustainableEPS float64 `json:"sustainable_eps"`
	LoadEPS        float64 `json:"load_eps"`
	LoadFraction   float64 `json:"load_fraction"`
	RecoveryMS     float64 `json:"recovery_ms"`
	BoundMS        float64 `json:"bound_ms"`
	WithinR        bool    `json:"within_r"`
	Delivered      uint64  `json:"delivered"`
	Dropped        uint64  `json:"dropped"`
	Shed           uint64  `json:"shed"`
}

// faultrateSection is the C8 high-fault-rate sweep (schema v7):
// per-(topology, λ) classification of every bad sink-period plus the
// graceful-degradation knee each topology sustains. All quantities are
// simulated-time and machine-independent, so they gate everywhere.
type faultrateSection struct {
	Rows  []faultrateRow  `json:"rows"`
	Knees []faultrateKnee `json:"knees"`
}

type faultrateRow struct {
	Topology      string  `json:"topology"`
	LambdaPerSec  float64 `json:"lambda_per_sec"`
	Arrivals      int     `json:"arrivals"`
	Tolerated     int     `json:"tolerated"`
	Detected      int     `json:"detected"`
	Untolerated   int     `json:"untolerated"`
	WorstWindowMS float64 `json:"worst_window_ms"`
	BoundWindowMS float64 `json:"bound_window_ms"`
	Reconciled    bool    `json:"reconciled"`
}

type faultrateKnee struct {
	Topology         string  `json:"topology"`
	KneeLambdaPerSec float64 `json:"knee_lambda_per_sec"`
}

// multifaultSection is the C10 multi-fault family (schema v9): the
// extended-catalog sweep — corrupt-sink, delay, skip-actuation — over
// the same (topology × λ) grid and knee locator as C8 (simulated time,
// machine-independent), plus the scripted concurrent-fault storms
// against real multi-process deployments (wall clock; only their
// invariants gate).
type multifaultSection struct {
	Rows   []faultrateRow       `json:"rows"`
	Knees  []faultrateKnee      `json:"knees"`
	Storms []multifaultStormRow `json:"storms"`
}

type multifaultStormRow struct {
	Name             string `json:"name"`
	Topology         string `json:"topology"`
	OverBudget       int    `json:"over_budget"`
	Reconciled       int    `json:"reconciled"`
	Flagged          bool   `json:"flagged"`
	Confined         bool   `json:"confined"`
	ReconnectChecked bool   `json:"reconnect_checked"`
	Reconnected      bool   `json:"reconnected"`
}

// churnRow is one C6 membership-churn entry of the bundle's churn
// section (schema v5).
type churnRow struct {
	Topology      string  `json:"topology"`
	Epochs        int     `json:"epochs"`
	WorstSwitchMS float64 `json:"worst_switch_ms"`
	BoundMS       float64 `json:"bound_r_ms"`
	WithinR       bool    `json:"within_r"`
	CleanChurn    bool    `json:"clean_churn"`
	ColdReplans   uint64  `json:"cold_replans"`
	WarmReplans   uint64  `json:"warm_replans"`
}

// liveRow is one C5 live-soak entry of the bundle's live section.
type liveRow struct {
	Topology       string  `json:"topology"`
	Nodes          int     `json:"nodes"`
	Runs           int     `json:"runs"`
	WorstRecoverMS float64 `json:"worst_recovery_ms"`
	BoundMS        float64 `json:"bound_r_ms"`
	WithinR        bool    `json:"within_r"`
}

// liveProcRow is one C7 multi-process deployment entry of the bundle's
// liveproc section (schema v6): one OS process per node over real TCP
// sockets. Reconnected is non-null only for faults whose repair must be
// visible at the transport (kill-restart, partition).
type liveProcRow struct {
	Topology    string  `json:"topology"`
	Nodes       int     `json:"nodes"`
	Fault       string  `json:"fault"`
	RecoveryMS  float64 `json:"recovery_ms"`
	BoundMS     float64 `json:"bound_r_ms"`
	WithinR     bool    `json:"within_r"`
	Reconnected *bool   `json:"reconnected"`
}

type benchScenario struct {
	ID     string  `json:"id"`
	Trials int     `json:"trials"`
	Failed int     `json:"failed"`
	WorkMS float64 `json:"work_ms"`
}

// workSlackMS is an absolute floor added to relative work comparisons so
// micro-scenarios (a few ms of work) don't fail on scheduler noise.
const workSlackMS = 25.0

// shareSlack is the absolute slack (in share points) added to the
// work-share comparison for the same reason.
const shareSlack = 0.02

// minCampaignCryptoSpeedup is the acceptance floor for the memo-on vs
// memo-off serial campaign wall ratio (same process, so the ratio is
// machine-independent): the crypto fast path must keep the campaign at
// least 1.5x faster than recomputing every signature.
const minCampaignCryptoSpeedup = 1.5

// compare returns the list of regressions (empty = pass) and the list
// of informational notices.
func compare(base, cur benchFile, tol, minWarmSpeedup, minKernelSpeedup, minCryptoSpeedup float64, maxWarmReplans int, wall bool) (failures, notices []string) {
	failf := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	notef := func(format string, args ...any) {
		notices = append(notices, fmt.Sprintf(format, args...))
	}
	if !strings.HasPrefix(cur.Schema, "btr-campaign-bench/") {
		failf("new bundle has unexpected schema %q", cur.Schema)
		return failures, notices
	}

	curByID := map[string]int{}
	for i, sc := range cur.Scenarios {
		curByID[sc.ID] = i
		if sc.Failed > 0 {
			failf("scenario %s: %d/%d trials failed", sc.ID, sc.Failed, sc.Trials)
		}
	}
	for _, sc := range base.Scenarios {
		if _, ok := curByID[sc.ID]; !ok {
			failf("scenario %s present in baseline but missing from new bundle", sc.ID)
		}
	}

	// The new bundle is always freshly generated at schema v2+, so a
	// missing/zero plan_cache section is itself a regression — never a
	// reason to waive the acceptance floor.
	if cur.PlanCache.Speedup <= 0 {
		failf("new bundle carries no plan_cache measurements")
	} else if cur.PlanCache.Speedup < minWarmSpeedup {
		failf("plan-cache warm speedup %.2fx below the %.1fx floor", cur.PlanCache.Speedup, minWarmSpeedup)
	}

	// Kernel throughput vs the frozen legacy baseline: both kernels run
	// the identical workload in the new bundle's process, so the ratio is
	// machine-independent and gates everywhere (schema v3+; older
	// baselines carry no kernel section, which does not matter — the
	// floor applies to the new bundle alone).
	if cur.Kernel.Speedup <= 0 {
		failf("new bundle carries no kernel throughput measurements")
	} else if cur.Kernel.Speedup < minKernelSpeedup {
		failf("kernel throughput %.2fx over the legacy baseline, below the %.1fx floor",
			cur.Kernel.Speedup, minKernelSpeedup)
	}

	// Crypto fast path (schema v4+): the cached-vs-uncached verify ratio
	// is same-process/same-working-set and therefore machine-independent;
	// so is the memo-on vs memo-off serial campaign ratio. Both gate
	// everywhere. The 1.5x campaign floor is the tentpole acceptance
	// criterion; the verify floor is configurable via -min-crypto-speedup.
	if cur.Crypto.VerifySpeedup <= 0 {
		failf("new bundle carries no crypto fast-path measurements")
	} else {
		if cur.Crypto.VerifySpeedup < minCryptoSpeedup {
			failf("verify memo speedup %.2fx below the %.1fx floor", cur.Crypto.VerifySpeedup, minCryptoSpeedup)
		}
		if cur.Crypto.CampaignSpeedup < minCampaignCryptoSpeedup {
			failf("memoized serial campaign only %.2fx over the uncached run, below the %.1fx floor",
				cur.Crypto.CampaignSpeedup, minCampaignCryptoSpeedup)
		}
	}

	// Live soak: every C5 topology row must have recovered within its
	// provable bound R — the wall-clock acceptance invariant. Absolute
	// recovery latencies are machine-dependent and are not compared.
	if len(cur.Live) == 0 {
		failf("new bundle carries no live soak rows")
	}
	for _, row := range cur.Live {
		if !row.WithinR {
			failf("live soak %s/%d: worst recovery %.1fms exceeded bound R=%.1fms",
				row.Topology, row.Nodes, row.WorstRecoverMS, row.BoundMS)
		}
	}

	// Multi-process deployments (schema v6): every C7 row — one OS
	// process per node over real TCP sockets — must have recovered within
	// its provable bound R, and for faults whose repair is
	// transport-visible (kill-restart, partition) every peer adjacent to
	// the victim must have re-established its link and held it at
	// horizon. Latencies are wall-clock and are not compared.
	if len(cur.LiveProc) == 0 {
		failf("new bundle carries no multi-process deployment rows")
	}
	for _, row := range cur.LiveProc {
		if !row.WithinR {
			failf("multi-process %s/%s: recovery %.1fms exceeded bound R=%.1fms",
				row.Topology, row.Fault, row.RecoveryMS, row.BoundMS)
		}
		if row.Reconnected != nil && !*row.Reconnected {
			failf("multi-process %s/%s: victim links did not re-establish on every peer",
				row.Topology, row.Fault)
		}
	}

	// Membership churn (schema v5): every C6 topology must complete all
	// three epochs with recovery within the per-epoch bound and no bad
	// output from churn itself; the epoch-switch latency (simulated time,
	// machine-independent) must stay within the epoch bound R; and warm
	// churn — replaying the same reconfiguration sequence against a warm
	// plan cache — must synthesize at most -max-warm-replans plans
	// (default zero: warm churn re-plans nothing).
	if len(cur.Churn) == 0 {
		failf("new bundle carries no membership-churn rows")
	}
	for _, row := range cur.Churn {
		if row.Epochs != 3 {
			failf("churn %s: %d epochs activated, want 3", row.Topology, row.Epochs)
		}
		if !row.WithinR {
			failf("churn %s: recovery exceeded the per-epoch bound R=%.1fms", row.Topology, row.BoundMS)
		}
		if !row.CleanChurn {
			failf("churn %s: reconfiguration alone produced bad output", row.Topology)
		}
		if row.WorstSwitchMS <= 0 || row.WorstSwitchMS > row.BoundMS {
			failf("churn %s: epoch-switch latency %.3fms outside (0, R=%.1fms]",
				row.Topology, row.WorstSwitchMS, row.BoundMS)
		}
		if row.WarmReplans > uint64(maxWarmReplans) {
			failf("churn %s: warm churn synthesized %d plan(s) (cold %d), above the %d floor",
				row.Topology, row.WarmReplans, row.ColdReplans, maxWarmReplans)
		}
	}

	// High-fault-rate regime (schema v7): every topology must sustain a
	// positive knee — some swept arrival rate at which continuous faults
	// never produce a silent miss — and every row at or below its
	// topology's knee must have zero untolerated periods and reconcile
	// its degraded windows within the bound. Rows above the knee are
	// informational: beyond the knee the conviction machinery itself can
	// starve, which is exactly what the knee locates.
	if len(cur.FaultRate.Rows) == 0 || len(cur.FaultRate.Knees) == 0 {
		failf("new bundle carries no fault-rate sweep")
	}
	kneeByTopo := map[string]float64{}
	for _, k := range cur.FaultRate.Knees {
		kneeByTopo[k.Topology] = k.KneeLambdaPerSec
		if k.KneeLambdaPerSec <= 0 {
			failf("faultrate %s: knee λ=%g — even the smallest swept rate produced a silent miss or an unreconciled window",
				k.Topology, k.KneeLambdaPerSec)
		}
	}
	for _, row := range cur.FaultRate.Rows {
		knee, ok := kneeByTopo[row.Topology]
		if !ok {
			failf("faultrate %s: row without a knee entry", row.Topology)
			continue
		}
		if row.LambdaPerSec > knee {
			continue
		}
		if row.Untolerated > 0 {
			failf("faultrate %s λ=%g (at/below knee %g): %d untolerated (silent) period(s)",
				row.Topology, row.LambdaPerSec, knee, row.Untolerated)
		}
		if !row.Reconciled {
			failf("faultrate %s λ=%g (at/below knee %g): worst degraded window %.1fms exceeded the %.1fms reconcile bound",
				row.Topology, row.LambdaPerSec, knee, row.WorstWindowMS, row.BoundWindowMS)
		}
	}

	// Saturation (schema v8): the C9 rows are wall-clock, so only their
	// invariants gate: a positive sustainable rate must exist, the loaded
	// recovery must have run at >= 80% of it, and recovery must land
	// within R.
	if len(cur.Saturation.Rows) == 0 {
		failf("new bundle carries no saturation section")
	}
	for _, row := range cur.Saturation.Rows {
		if row.SustainableEPS <= 0 {
			failf("saturation %s/%d: no sustainable event rate located", row.Topology, row.Nodes)
		}
		if row.LoadFraction < 0.8 {
			failf("saturation %s/%d: loaded recovery ran at %.0f%% of the sustainable rate, below the 80%% operating point",
				row.Topology, row.Nodes, row.LoadFraction*100)
		}
		if !row.WithinR {
			failf("saturation %s/%d: recovery %.1fms under %.0f ev/s flood exceeded bound R=%.1fms",
				row.Topology, row.Nodes, row.RecoveryMS, row.LoadEPS, row.BoundMS)
		}
	}

	// Multi-fault regime (schema v9): the extended-catalog sweep obeys
	// the same invariants as the C8 sweep — positive knee per topology,
	// zero untolerated periods and reconciled windows at and below each
	// knee — and every scripted > f storm must have been flagged (some
	// node flooded a signed over-budget verdict), confined (every bad
	// interval fault-attributable) and, where a repair is
	// transport-visible, reconnected on every surviving peer.
	if len(cur.MultiFault.Rows) == 0 || len(cur.MultiFault.Knees) == 0 {
		failf("new bundle carries no multi-fault sweep")
	}
	mfKneeByTopo := map[string]float64{}
	for _, k := range cur.MultiFault.Knees {
		mfKneeByTopo[k.Topology] = k.KneeLambdaPerSec
		if k.KneeLambdaPerSec <= 0 {
			failf("multifault %s: knee λ=%g — even the smallest swept rate produced a silent miss or an unreconciled window",
				k.Topology, k.KneeLambdaPerSec)
		}
	}
	for _, row := range cur.MultiFault.Rows {
		knee, ok := mfKneeByTopo[row.Topology]
		if !ok {
			failf("multifault %s: row without a knee entry", row.Topology)
			continue
		}
		if row.LambdaPerSec > knee {
			continue
		}
		if row.Untolerated > 0 {
			failf("multifault %s λ=%g (at/below knee %g): %d untolerated (silent) period(s)",
				row.Topology, row.LambdaPerSec, knee, row.Untolerated)
		}
		if !row.Reconciled {
			failf("multifault %s λ=%g (at/below knee %g): worst degraded window %.1fms exceeded the %.1fms reconcile bound",
				row.Topology, row.LambdaPerSec, knee, row.WorstWindowMS, row.BoundWindowMS)
		}
	}
	if len(cur.MultiFault.Storms) == 0 {
		failf("new bundle carries no multi-fault storms")
	}
	for _, st := range cur.MultiFault.Storms {
		if !st.Flagged {
			failf("multifault storm %s: > f storm raised no over-budget verdict", st.Name)
		}
		if st.Reconciled == 0 {
			failf("multifault storm %s: storm drained but no node reconciled", st.Name)
		}
		if !st.Confined {
			failf("multifault storm %s: bad output outside the fault-attributable window", st.Name)
		}
		if !st.ReconnectChecked {
			failf("multifault storm %s: no transport-visible repair was reconnect-checked", st.Name)
		} else if !st.Reconnected {
			failf("multifault storm %s: a repaired victim's links did not re-establish on every peer", st.Name)
		}
	}

	// Client SLO (schema v10): the serving surface judged from outside.
	// Every row must be error-free — a ≤ f fault is the client's to ride
	// through via quorum retries, never to surface — and its longest
	// success gap must sit within the recorded bound (R plus one
	// detection period and the watchdog margin). A row must carry ops:
	// an SLO over zero operations gates nothing.
	if len(cur.ClientSLO) == 0 {
		failf("new bundle carries no client-SLO rows")
	}
	for _, row := range cur.ClientSLO {
		if row.Ops == 0 {
			failf("clientslo %s/%s: no client operations completed", row.Name, row.Fault)
		}
		if row.Errors > 0 {
			failf("clientslo %s/%s: %d client-visible error(s) across %d op(s) — retries must absorb a <= f fault",
				row.Name, row.Fault, row.Errors, row.Ops)
		}
		if row.BoundMS <= 0 {
			failf("clientslo %s/%s: no recorded unavailability bound", row.Name, row.Fault)
		} else if row.MaxUnavailMS > row.BoundMS {
			failf("clientslo %s/%s: client-visible unavailability %.1fms exceeded the %.1fms bound",
				row.Name, row.Fault, row.MaxUnavailMS, row.BoundMS)
		}
		if !row.Within {
			failf("clientslo %s/%s: row recorded within=false", row.Name, row.Fault)
		}
	}

	if base.Quick != cur.Quick {
		notef("skipping perf comparison: baseline quick=%v vs new quick=%v", base.Quick, cur.Quick)
		return failures, notices
	}

	// Work-share check (host-speed independent): each scenario's share
	// of the total serial compute must not grow beyond the tolerance.
	totalWork := func(f benchFile) float64 {
		t := 0.0
		for _, sc := range f.Scenarios {
			t += sc.WorkMS
		}
		return t
	}
	baseTotal, curTotal := totalWork(base), totalWork(cur)
	if baseTotal > 0 && curTotal > 0 {
		for _, bsc := range base.Scenarios {
			i, ok := curByID[bsc.ID]
			if !ok {
				continue
			}
			baseShare := bsc.WorkMS / baseTotal
			curShare := cur.Scenarios[i].WorkMS / curTotal
			// E4 is the crypto-bound canary: its share is gated without
			// the absolute slack, so creep back toward crypto-dominated
			// campaigns fails even when E4's share is small.
			slack := shareSlack
			if bsc.ID == "E4" {
				slack = 0
			}
			if curShare > baseShare*(1+tol)+slack {
				failf("scenario %s work share regressed >%.0f%%: %.1f%% -> %.1f%% of total serial compute",
					bsc.ID, tol*100, baseShare*100, curShare*100)
			}
		}
	}

	// Absolute wall-clock checks: same-host, same-parallelism runs only.
	if !wall {
		notef("absolute wall-clock checks disabled (pass -wall for same-host comparisons)")
		return failures, notices
	}
	if base.GOMAXPROCS <= 0 || base.GOMAXPROCS != cur.GOMAXPROCS {
		notef("skipping absolute wall-clock comparison: baseline gomaxprocs=%d vs new gomaxprocs=%d",
			base.GOMAXPROCS, cur.GOMAXPROCS)
		return failures, notices
	}
	regressed := func(name string, baseMS, curMS, slack float64) {
		if baseMS <= 0 {
			return
		}
		if curMS > baseMS*(1+tol)+slack {
			failf("%s regressed >%.0f%%: %.1fms -> %.1fms", name, tol*100, baseMS, curMS)
		}
	}
	regressed("campaign serial wall", base.SerialMS, cur.SerialMS, workSlackMS)
	regressed("plan-cache cold synthesis", base.PlanCache.ColdMS, cur.PlanCache.ColdMS, 5)
	for _, bsc := range base.Scenarios {
		if i, ok := curByID[bsc.ID]; ok {
			regressed("scenario "+bsc.ID+" work", bsc.WorkMS, cur.Scenarios[i].WorkMS, workSlackMS)
		}
	}
	return failures, notices
}

func load(path string) (benchFile, error) {
	var f benchFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_campaign.json", "committed baseline bundle")
	newPath := flag.String("new", "BENCH_new.json", "freshly generated bundle")
	tol := flag.Float64("tolerance", 0.20, "allowed relative regression (work shares; wall clock with -wall)")
	minWarm := flag.Float64("min-warm-speedup", 5, "minimum warm-plan-cache speedup (acceptance floor)")
	minKernel := flag.Float64("min-kernel-speedup", 2, "minimum kernel throughput over the legacy baseline (acceptance floor)")
	minCrypto := flag.Float64("min-crypto-speedup", 2, "minimum cached-vs-uncached verify speedup (acceptance floor)")
	maxWarmReplans := flag.Int("max-warm-replans", 0, "maximum plan syntheses a warm churn replay may perform (acceptance ceiling)")
	wall := flag.Bool("wall", false, "also gate absolute wall-clock times (same-host comparisons only)")
	flag.Parse()

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "btrcheckbench: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "btrcheckbench: %v\n", err)
		os.Exit(2)
	}
	failures, notices := compare(base, cur, *tol, *minWarm, *minKernel, *minCrypto, *maxWarmReplans, *wall)
	for _, n := range notices {
		fmt.Printf("note: %s\n", n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Printf("FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("bench check OK: %d scenario(s), serial %.0fms, plan-cache warm %.2fx, kernel %.2fx, verify memo %.2fx, crypto campaign %.2fx (E4 share %.1f%%), %d live row(s) within R, %d multi-process row(s) within R, %d churn row(s) within R (warm replans 0), %d fault-rate row(s) clean at/below %d knee(s), %d saturation row(s) within R under load, %d multifault row(s) + %d storm(s) flagged+confined, %d client-SLO row(s) error-free within bound\n",
		len(cur.Scenarios), cur.SerialMS, cur.PlanCache.Speedup, cur.Kernel.Speedup,
		cur.Crypto.VerifySpeedup, cur.Crypto.CampaignSpeedup, cur.Crypto.E4WorkShare*100,
		len(cur.Live), len(cur.LiveProc), len(cur.Churn), len(cur.FaultRate.Rows), len(cur.FaultRate.Knees),
		len(cur.Saturation.Rows), len(cur.MultiFault.Rows), len(cur.MultiFault.Storms), len(cur.ClientSLO))
}
