package btr

// BENCH_campaign.json is the campaign verdict bundle (BENCH_SCHEMA.md):
// what the families that run under real faults observed against the
// provable bound R. This file declares it once — the schema structs, the
// gates table that judges it, and the emitter that writes it.
//
//	make bench-json   # regenerate the committed bundle, gated
//	make bench-check  # write BENCH_new.json and fail on any gate
//
// Speed is measured by the repository's benchmark (benchmark/), not here.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"btr/internal/campaign"
	"btr/internal/exp"
	"btr/internal/live"
	"btr/internal/plan/cache"
	"btr/internal/sim"
)

// TestMain lets this test binary double as the node-process binary: the
// C7 multi-process family re-executes os.Executable() with BTR_PROC_SPEC
// set, and MaybeRunNodeProc turns that re-execution into a deployment
// node instead of a second test run.
func TestMain(m *testing.M) {
	live.MaybeRunNodeProc()
	os.Exit(m.Run())
}

// benchSchema is the bundle's schema string; BENCH_SCHEMA.md has the
// version history.
const benchSchema = "btr-campaign-bench/v12"

// campaignBench is the BENCH_campaign.json schema. gomaxprocs and
// host_cores record the parallelism the wall-clock sections ran at.
type campaignBench struct {
	Schema     string `json:"schema"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	HostCores  int    `json:"host_cores"`

	// Live is the C5 wall-clock soak: full deployments on the real-time
	// executor across topology families, worst recovery vs R per topology.
	Live []liveBenchRow `json:"live"`

	// LiveProc is the C7 multi-process soak: one OS process per node over
	// real TCP sockets, faults injected against real processes (catalog,
	// SIGKILL-restart, partition), recovery judged by the orchestrator.
	LiveProc []liveProcBenchRow `json:"liveproc"`

	// Saturation is the C9 probe: per topology, the sustainable flood
	// events/sec the live transport absorbs, and a recovery run at >= 80%
	// of that rate.
	Saturation saturationBench `json:"saturation"`

	// FaultRate is the C8 high-fault-rate sweep: Poisson-style fault
	// arrivals at rate λ against parole-clock deployments, every bad
	// sink-period classified tolerated, detected or untolerated, plus the
	// knee each topology sustains. Simulated time, machine-independent.
	FaultRate faultrateBench `json:"faultrate"`

	// MultiFault is the C10 family: the same sweep over the extended
	// catalog (corrupt-sink, delay, skip-actuation), plus the scripted
	// storms of two concurrent process-level faults (> f) against real
	// multi-process deployments.
	MultiFault multifaultBench `json:"multifault"`

	// ClientSLO is the C11 family: the client-visible verdict of
	// epoch-aware quorum-client sessions driven through orchestrated
	// deployments, steady and under ≤ f process faults.
	ClientSLO []clientsloBenchRow `json:"clientslo"`

	// Churn is the C6 membership-churn family, each topology run twice
	// against a shared plan cache: the warm replay must re-plan nothing.
	Churn []churnBenchRow `json:"churn"`

	// Scenarios are the scenarios of the bundle run (E1–E10, C4–C11) and
	// how many of their trials failed.
	Scenarios []campaignBenchScenario `json:"scenarios"`
}

type liveBenchRow struct {
	Topology       string  `json:"topology"`
	Nodes          int     `json:"nodes"`
	F              int     `json:"f"`
	Runs           int     `json:"runs"`
	WorstRecoverMS float64 `json:"worst_recovery_ms"`
	BoundMS        float64 `json:"bound_r_ms"`
	WithinR        bool    `json:"within_r"`
}

type liveProcBenchRow struct {
	Topology   string  `json:"topology"`
	Nodes      int     `json:"nodes"`
	F          int     `json:"f"`
	Fault      string  `json:"fault"`
	RecoveryMS float64 `json:"recovery_ms"`
	BoundMS    float64 `json:"bound_r_ms"`
	WithinR    bool    `json:"within_r"`
	// Reconnected is non-null only for faults whose repair must be
	// visible at the transport (kill-restart, partition).
	Reconnected *bool `json:"reconnected"`
}

type saturationBench struct {
	Rows []saturationBenchRow `json:"rows"`
}

type saturationBenchRow struct {
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

// faultrateBench is a (topology × λ) sweep plus the knee per topology:
// the largest swept λ whose whole prefix is clean.
type faultrateBench struct {
	Rows  []faultrateBenchRow `json:"rows"`
	Knees []faultrateKnee     `json:"knees"`
}

type faultrateBenchRow struct {
	Topology      string  `json:"topology"`
	LambdaPerSec  float64 `json:"lambda_per_sec"`
	Arrivals      int     `json:"arrivals"`
	Tolerated     int     `json:"tolerated"`
	Detected      int     `json:"detected"`
	Untolerated   int     `json:"untolerated"`
	Windows       int     `json:"windows"`
	WorstWindowMS float64 `json:"worst_window_ms"`
	BoundWindowMS float64 `json:"bound_window_ms"`
	Reconciled    bool    `json:"reconciled"`
}

type faultrateKnee struct {
	Topology         string  `json:"topology"`
	KneeLambdaPerSec float64 `json:"knee_lambda_per_sec"`
}

type multifaultBench struct {
	faultrateBench
	Storms []multifaultStormRow `json:"storms"`
}

type multifaultStormRow struct {
	Name             string `json:"name"`
	Topology         string `json:"topology"`
	Nodes            int    `json:"nodes"`
	F                int    `json:"f"`
	Faults           string `json:"faults"`
	OverBudget       int    `json:"over_budget"`
	Reconciled       int    `json:"reconciled"`
	Flagged          bool   `json:"flagged"`
	Confined         bool   `json:"confined"`
	ReconnectChecked bool   `json:"reconnect_checked"`
	Reconnected      bool   `json:"reconnected"`
}

type clientsloBenchRow struct {
	Name         string  `json:"name"`
	Topology     string  `json:"topology"`
	Nodes        int     `json:"nodes"`
	F            int     `json:"f"`
	Fault        string  `json:"fault"`
	Sessions     int     `json:"sessions"`
	Ops          uint64  `json:"ops"`
	Errors       uint64  `json:"errors"`
	Retries      uint64  `json:"retries"`
	StaleRetries uint64  `json:"stale_retries"`
	P50MS        float64 `json:"p50_ms"`
	P99MS        float64 `json:"p99_ms"`
	P999MS       float64 `json:"p999_ms"`
	MaxUnavailMS float64 `json:"max_unavail_ms"`
	BoundMS      float64 `json:"bound_ms"`
	Within       bool    `json:"within"`
}

type churnBenchRow struct {
	Topology      string  `json:"topology"`
	Epochs        int     `json:"epochs"`
	WorstSwitchMS float64 `json:"worst_switch_ms"`
	BoundMS       float64 `json:"bound_r_ms"`
	WithinR       bool    `json:"within_r"`
	CleanChurn    bool    `json:"clean_churn"`
	ColdReplans   uint64  `json:"cold_replans"`
	WarmReplans   uint64  `json:"warm_replans"`
}

type campaignBenchScenario struct {
	ID     string `json:"id"`
	Trials int    `json:"trials"`
	Failed int    `json:"failed"`
}

// key names a row in a gate failure.
func (r liveBenchRow) key() string          { return fmt.Sprintf("%s/%d", r.Topology, r.Nodes) }
func (r liveProcBenchRow) key() string      { return fmt.Sprintf("%s/%d/%s", r.Topology, r.Nodes, r.Fault) }
func (r saturationBenchRow) key() string    { return fmt.Sprintf("%s/%d", r.Topology, r.Nodes) }
func (r faultrateBenchRow) key() string     { return fmt.Sprintf("%s λ=%g", r.Topology, r.LambdaPerSec) }
func (r faultrateKnee) key() string         { return r.Topology }
func (r multifaultStormRow) key() string    { return r.Name }
func (r clientsloBenchRow) key() string     { return r.Name }
func (r churnBenchRow) key() string         { return r.Topology }
func (s campaignBenchScenario) key() string { return s.ID }

// --- gates ------------------------------------------------------------------

// gate is one rule the bundle must satisfy: section → field → check.
// bad holds the keys of the rows that break it ("" when the rule judges
// the section as a whole).
type gate struct {
	section, field, want string
	bad                  []string
}

// id names the rule: section, then field when the rule judges one.
func (g gate) id() string {
	if g.field == "" {
		return g.section
	}
	return g.section + "." + g.field
}

// gates is the one table of bundle rules, evaluated on cur. base is the
// committed bundle: every scenario it lists must still run. Sections
// prefix FAULT_MODEL.md's bench:<section> citations;
// TestFaultModelCitationsAreGated ties the two together.
func gates(cur, base *campaignBench) []gate {
	fr, mf := &cur.FaultRate, &cur.MultiFault.faultrateBench
	return []gate{
		{"scenarios", "id", "every committed id still runs", missingScenarios(cur, base)},
		{"scenarios", "failed", "== 0", each(cur.Scenarios, func(s campaignBenchScenario) bool { return s.Failed == 0 })},

		{"live", "", "non-empty", present(cur.Live)},
		{"live", "within_r", "true", each(cur.Live, func(r liveBenchRow) bool { return r.WithinR })},

		{"liveproc", "", "non-empty", present(cur.LiveProc)},
		{"liveproc", "within_r", "true", each(cur.LiveProc, func(r liveProcBenchRow) bool { return r.WithinR })},
		{"liveproc", "reconnected", "not false", each(cur.LiveProc, func(r liveProcBenchRow) bool { return r.Reconnected == nil || *r.Reconnected })},

		{"churn", "", "non-empty", present(cur.Churn)},
		{"churn", "epochs", "== 3", each(cur.Churn, func(r churnBenchRow) bool { return r.Epochs == 3 })},
		{"churn", "within_r", "true", each(cur.Churn, func(r churnBenchRow) bool { return r.WithinR })},
		{"churn", "clean_churn", "true", each(cur.Churn, func(r churnBenchRow) bool { return r.CleanChurn })},
		{"churn", "worst_switch_ms", "in (0, bound_r_ms]", each(cur.Churn, func(r churnBenchRow) bool { return r.WorstSwitchMS > 0 && r.WorstSwitchMS <= r.BoundMS })},
		{"churn", "warm_replans", "== 0", each(cur.Churn, func(r churnBenchRow) bool { return r.WarmReplans == 0 })},

		{"faultrate.rows", "", "non-empty", present(fr.Rows)},
		{"faultrate.rows", "topology", "has a knee", each(fr.Rows, func(r faultrateBenchRow) bool { _, ok := fr.knee(r.Topology); return ok })},
		{"faultrate.rows", "untolerated", "== 0 at or below the knee", belowKnee(fr, func(r faultrateBenchRow) bool { return r.Untolerated == 0 })},
		{"faultrate.rows", "reconciled", "true at or below the knee", belowKnee(fr, func(r faultrateBenchRow) bool { return r.Reconciled })},
		{"faultrate.knees", "knee_lambda_per_sec", "> 0", each(fr.Knees, func(k faultrateKnee) bool { return k.KneeLambdaPerSec > 0 })},

		{"saturation.rows", "", "non-empty", present(cur.Saturation.Rows)},
		{"saturation.rows", "sustainable_eps", "> 0", each(cur.Saturation.Rows, func(r saturationBenchRow) bool { return r.SustainableEPS > 0 })},
		{"saturation.rows", "load_fraction", ">= 0.8", each(cur.Saturation.Rows, func(r saturationBenchRow) bool { return r.LoadFraction >= 0.8 })},
		{"saturation.rows", "within_r", "true", each(cur.Saturation.Rows, func(r saturationBenchRow) bool { return r.WithinR })},

		{"multifault.rows", "", "non-empty", present(mf.Rows)},
		{"multifault.rows", "topology", "has a knee", each(mf.Rows, func(r faultrateBenchRow) bool { _, ok := mf.knee(r.Topology); return ok })},
		{"multifault.rows", "untolerated", "== 0 at or below the knee", belowKnee(mf, func(r faultrateBenchRow) bool { return r.Untolerated == 0 })},
		{"multifault.rows", "reconciled", "true at or below the knee", belowKnee(mf, func(r faultrateBenchRow) bool { return r.Reconciled })},
		{"multifault.knees", "knee_lambda_per_sec", "> 0", each(mf.Knees, func(k faultrateKnee) bool { return k.KneeLambdaPerSec > 0 })},
		{"multifault.storms", "", "non-empty", present(cur.MultiFault.Storms)},
		{"multifault.storms", "flagged", "true", each(cur.MultiFault.Storms, func(s multifaultStormRow) bool { return s.Flagged })},
		{"multifault.storms", "reconciled", "> 0", each(cur.MultiFault.Storms, func(s multifaultStormRow) bool { return s.Reconciled > 0 })},
		{"multifault.storms", "confined", "true", each(cur.MultiFault.Storms, func(s multifaultStormRow) bool { return s.Confined })},
		{"multifault.storms", "reconnect_checked", "true", each(cur.MultiFault.Storms, func(s multifaultStormRow) bool { return s.ReconnectChecked })},
		{"multifault.storms", "reconnected", "true where checked", each(cur.MultiFault.Storms, func(s multifaultStormRow) bool { return !s.ReconnectChecked || s.Reconnected })},

		{"clientslo", "", "non-empty", present(cur.ClientSLO)},
		{"clientslo", "ops", "> 0", each(cur.ClientSLO, func(r clientsloBenchRow) bool { return r.Ops > 0 })},
		{"clientslo", "errors", "== 0", each(cur.ClientSLO, func(r clientsloBenchRow) bool { return r.Errors == 0 })},
		{"clientslo", "bound_ms", "> 0", each(cur.ClientSLO, func(r clientsloBenchRow) bool { return r.BoundMS > 0 })},
		{"clientslo", "max_unavail_ms", "<= bound_ms", each(cur.ClientSLO, func(r clientsloBenchRow) bool { return r.BoundMS <= 0 || r.MaxUnavailMS <= r.BoundMS })},
		{"clientslo", "within", "true", each(cur.ClientSLO, func(r clientsloBenchRow) bool { return r.Within })},
	}
}

// present breaks when a section has no rows.
func present[T any](rows []T) []string {
	if len(rows) == 0 {
		return []string{""}
	}
	return nil
}

// each returns the keys of the rows that fail ok.
func each[T interface{ key() string }](rows []T, ok func(T) bool) []string {
	var bad []string
	for _, r := range rows {
		if !ok(r) {
			bad = append(bad, r.key())
		}
	}
	return bad
}

// belowKnee is the knee-relative rule kind: it returns the keys of the
// rows at or below their topology's knee that fail ok. Rows above the
// knee are reported but not gated — beyond it the conviction machinery
// itself can starve, which is what the knee locates — and a row with no
// knee entry is the "has a knee" rule's to judge.
func belowKnee(s *faultrateBench, ok func(faultrateBenchRow) bool) []string {
	var bad []string
	for _, r := range s.Rows {
		if knee, found := s.knee(r.Topology); found && r.LambdaPerSec <= knee && !ok(r) {
			bad = append(bad, r.key())
		}
	}
	return bad
}

func (s *faultrateBench) knee(topology string) (float64, bool) {
	i := slices.IndexFunc(s.Knees, func(k faultrateKnee) bool { return k.Topology == topology })
	if i < 0 {
		return 0, false
	}
	return s.Knees[i].KneeLambdaPerSec, true
}

// missingScenarios returns the committed scenario ids cur no longer runs.
func missingScenarios(cur, base *campaignBench) []string {
	var missing []string
	for _, sc := range base.Scenarios {
		if !slices.ContainsFunc(cur.Scenarios, func(c campaignBenchScenario) bool { return c.ID == sc.ID }) {
			missing = append(missing, sc.ID)
		}
	}
	return missing
}

// judge returns one line per broken (rule, row); empty means every gate
// holds.
func judge(cur, base *campaignBench) []string {
	var failures []string
	for _, g := range gates(cur, base) {
		for _, key := range g.bad {
			where := g.section
			if key != "" {
				where += "[" + key + "]"
			}
			if g.field != "" {
				where += "." + g.field
			}
			failures = append(failures, fmt.Sprintf("%s: want %s", where, g.want))
		}
	}
	return failures
}

// --- emitter ----------------------------------------------------------------

// TestEmitCampaignBench regenerates the bundle into BTR_BENCH_OUT (wired
// to `make bench-json` and `make bench-check`), then fails on every broken
// gate, judged against the committed BENCH_campaign.json as read before
// the write. It is skipped in normal test runs.
func TestEmitCampaignBench(t *testing.T) {
	out := os.Getenv("BTR_BENCH_OUT")
	if out == "" {
		t.Skip("set BTR_BENCH_OUT=<path> to emit and gate the campaign verdict bundle")
	}
	base, err := loadBench("BENCH_campaign.json")
	if err != nil {
		t.Fatal(err)
	}
	p := campaign.Params{Seed: 1}
	bench := foldBench(campaign.Run(benchScenarios(), campaign.Options{Workers: 1, Params: p}))
	bench.Schema, bench.Seed, bench.Quick = benchSchema, p.Seed, p.Quick
	bench.GOMAXPROCS, bench.HostCores = runtime.GOMAXPROCS(0), runtime.NumCPU()
	bench.Churn = measureChurn(t)
	b, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	failures := judge(&bench, base)
	for _, f := range failures {
		t.Errorf("gate: %s", f)
	}
	t.Logf("wrote %s: %d gate(s), %d broken; %d scenario(s), %d live, %d multi-process, %d churn, %d fault-rate + %d multifault row(s), %d storm(s), %d saturation, %d clientslo row(s)",
		out, len(gates(&bench, base)), len(failures), len(bench.Scenarios), len(bench.Live), len(bench.LiveProc),
		len(bench.Churn), len(bench.FaultRate.Rows), len(bench.MultiFault.Rows), len(bench.MultiFault.Storms),
		len(bench.Saturation.Rows), len(bench.ClientSLO))
}

// loadBench reads a committed bundle. Older schemas decode too: fields
// v12 dropped are ignored.
func loadBench(path string) (*campaignBench, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b campaignBench
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// benchScenarios are the scenarios the bundle run covers: every one but
// the C1–C3 Monte Carlo sweeps.
func benchScenarios() []campaign.Scenario {
	var out []campaign.Scenario
	for _, sc := range exp.Scenarios() {
		if !slices.Contains([]string{"C1", "C2", "C3"}, sc.ID) {
			out = append(out, sc)
		}
	}
	return out
}

// foldBench folds one campaign run into the bundle's sections: each
// section reads its scenario's trial rows, and scenarios lists every
// scenario of the run with its failed-trial count. A failed trial has
// no row; it shows as scenarios[id].failed.
func foldBench(results []campaign.ScenarioResult) campaignBench {
	var b campaignBench
	for _, r := range results {
		b.Scenarios = append(b.Scenarios, campaignBenchScenario{ID: r.ID, Trials: len(r.Trials), Failed: r.Failed})
		switch r.ID {
		case "C5":
			b.Live = foldLive(trialRows[exp.C5Row](r))
		case "C7":
			b.LiveProc = foldRows(trialRows[exp.C7Row](r), liveProcRow)
		case "C8":
			b.FaultRate = foldSweep(trialRows[exp.C8Row](r))
		case "C9":
			b.Saturation.Rows = foldRows(trialRows[exp.C9Row](r), saturationRow)
		case "C10":
			b.MultiFault = multifaultBench{foldSweep(trialRows[exp.C8Row](r)), foldRows(trialRows[exp.C10StormRow](r), stormRow)}
		case "C11":
			b.ClientSLO = foldRows(trialRows[exp.C11Row](r), clientSLORow)
		}
	}
	return b
}

// trialRows returns the R payloads of a scenario's trials, in trial order.
func trialRows[R any](r campaign.ScenarioResult) []R {
	var out []R
	for _, tr := range r.Trials {
		if v, ok := campaign.Value[R](tr); ok {
			out = append(out, v)
		}
	}
	return out
}

// foldRows converts each row into its bundle entry.
func foldRows[R, B any](in []R, conv func(R) B) []B {
	var out []B
	for _, r := range in {
		out = append(out, conv(r))
	}
	return out
}

// foldLive folds the C5 per-run rows into per-topology entries: the
// worst recovery, within R only if every run was.
func foldLive(in []exp.C5Row) []liveBenchRow {
	var out []liveBenchRow
	for _, row := range in {
		i := slices.IndexFunc(out, func(r liveBenchRow) bool { return r.Topology == row.Topology && r.Nodes == row.Nodes })
		if i < 0 {
			out = append(out, liveBenchRow{Topology: row.Topology, Nodes: row.Nodes, F: row.F, WithinR: true})
			i = len(out) - 1
		}
		a := &out[i]
		a.Runs++
		a.WorstRecoverMS = max(a.WorstRecoverMS, row.Recovery.Millis())
		a.BoundMS = row.Bound.Millis()
		a.WithinR = a.WithinR && row.Recovery <= row.Bound
	}
	return out
}

func liveProcRow(row exp.C7Row) liveProcBenchRow {
	r := liveProcBenchRow{
		Topology: row.Topology, Nodes: row.Nodes, F: row.F, Fault: row.Fault,
		RecoveryMS: row.Recovery.Millis(), BoundMS: row.Bound.Millis(),
		WithinR: row.Recovery <= row.Bound,
	}
	if row.ReconnectChecked {
		r.Reconnected = &row.Reconnected
	}
	return r
}

// foldSweep copies a C8-shaped sweep's rows (topology by topology, λ
// ascending) and adds each topology's knee, as the scenario's table
// notes it.
func foldSweep(in []exp.C8Row) faultrateBench {
	var out faultrateBench
	for start := 0; start < len(in); {
		end := start
		for end < len(in) && in[end].Topology == in[start].Topology {
			row := in[end]
			out.Rows = append(out.Rows, faultrateBenchRow{
				Topology: row.Topology, LambdaPerSec: row.Lambda, Arrivals: row.Arrivals,
				Tolerated: row.Tolerated, Detected: row.Detected, Untolerated: row.Untolerated,
				Windows: row.Windows, WorstWindowMS: row.WorstWindow.Millis(), BoundWindowMS: row.Bound.Millis(),
				Reconciled: row.Reconciled,
			})
			end++
		}
		out.Knees = append(out.Knees, faultrateKnee{Topology: in[start].Topology, KneeLambdaPerSec: exp.C8Knee(in[start:end])})
		start = end
	}
	return out
}

func saturationRow(row exp.C9Row) saturationBenchRow {
	return saturationBenchRow{
		Topology: row.Topology, Nodes: row.Nodes, F: row.F,
		SustainableEPS: row.SustainableEPS, LoadEPS: row.LoadEPS, LoadFraction: row.LoadFraction,
		RecoveryMS: row.Recovery.Millis(), BoundMS: row.Bound.Millis(), WithinR: row.WithinR,
		Delivered: row.Delivered, Dropped: row.Dropped, Shed: row.Shed,
	}
}

func stormRow(row exp.C10StormRow) multifaultStormRow {
	return multifaultStormRow{
		Name: row.Name, Topology: row.Topology, Nodes: row.Nodes, F: row.F, Faults: row.Faults,
		OverBudget: row.OverBudget, Reconciled: row.Reconciled, Flagged: row.Flagged, Confined: row.Confined,
		ReconnectChecked: row.ReconnectChecked, Reconnected: row.Reconnected,
	}
}

func clientSLORow(row exp.C11Row) clientsloBenchRow {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	return clientsloBenchRow{
		Name: row.Name, Topology: row.Topology, Nodes: row.Nodes, F: row.F, Fault: row.Fault,
		Sessions: row.Sessions, Ops: row.Ops, Errors: row.Errors,
		Retries: row.Retries, StaleRetries: row.StaleRetries,
		P50MS: ms(row.P50), P99MS: ms(row.P99), P999MS: ms(row.P999),
		MaxUnavailMS: ms(row.MaxUnavail), BoundMS: ms(row.Bound), Within: row.Within,
	}
}

// measureChurn runs every C6 churn topology twice against a shared plan
// cache: the first pass counts cold replans, the second proves warm
// churn synthesizes nothing while reproducing identical epochs.
func measureChurn(t *testing.T) []churnBenchRow {
	var rows []churnBenchRow
	for _, kind := range exp.ChurnKinds() {
		shared := cache.New()
		cold, err := exp.RunChurnBench(kind, 1, shared)
		if err != nil {
			t.Fatalf("churn bench %s (cold): %v", kind, err)
		}
		warm, err := exp.RunChurnBench(kind, 1, shared)
		if err != nil {
			t.Fatalf("churn bench %s (warm): %v", kind, err)
		}
		rows = append(rows, churnBenchRow{
			Topology:      kind,
			Epochs:        warm.Epochs,
			WorstSwitchMS: warm.WorstSwitch.Millis(),
			BoundMS:       warm.WorstBound.Millis(),
			WithinR:       warm.WithinR,
			CleanChurn:    warm.CleanChurn,
			ColdReplans:   cold.Replans,
			WarmReplans:   warm.Replans,
		})
	}
	return rows
}

// --- gate tests -------------------------------------------------------------

// TestFoldBench: the folds read one campaign run. A failed C5 trial
// leaves no live row behind but shows as scenarios[C5].failed, which
// judge reports; each sweep topology's knee is C8Knee of its rows, and
// C10's trials split into sweep rows and storms.
func TestFoldBench(t *testing.T) {
	ok := func(v any) campaign.TrialResult { return campaign.TrialResult{Value: v} }
	sweep := []campaign.TrialResult{
		ok(exp.C8Row{Topology: "full-mesh", Lambda: 1, Reconciled: true}),
		ok(exp.C8Row{Topology: "full-mesh", Lambda: 2, Untolerated: 1}),
		ok(exp.C8Row{Topology: "ring", Lambda: 1, Reconciled: true}),
	}
	results := []campaign.ScenarioResult{
		{ID: "E1", Trials: []campaign.TrialResult{ok(nil)}},
		{ID: "C5", Failed: 1, Trials: []campaign.TrialResult{
			ok(exp.C5Row{Topology: "ring", Nodes: 6, F: 1, Recovery: 100 * sim.Millisecond, Bound: 600 * sim.Millisecond}),
			{Err: errors.New("deploy: timed out")},
			ok(exp.C5Row{Topology: "ring", Nodes: 6, F: 1, Recovery: 300 * sim.Millisecond, Bound: 600 * sim.Millisecond}),
		}},
		{ID: "C8", Trials: sweep},
		{ID: "C10", Trials: append(slices.Clone(sweep), ok(exp.C10StormRow{Name: "kill+stop", Flagged: true}))},
	}
	b := foldBench(results)
	wantScenarios := []campaignBenchScenario{{"E1", 1, 0}, {"C5", 3, 1}, {"C8", 3, 0}, {"C10", 4, 0}}
	if !slices.Equal(b.Scenarios, wantScenarios) {
		t.Errorf("scenarios = %v, want %v", b.Scenarios, wantScenarios)
	}
	wantLive := []liveBenchRow{{Topology: "ring", Nodes: 6, F: 1, Runs: 2, WorstRecoverMS: 300, BoundMS: 600, WithinR: true}}
	if !slices.Equal(b.Live, wantLive) {
		t.Errorf("live = %v, want %v", b.Live, wantLive)
	}
	wantKnees := []faultrateKnee{{"full-mesh", 1}, {"ring", 1}}
	for name, s := range map[string]faultrateBench{"faultrate": b.FaultRate, "multifault": b.MultiFault.faultrateBench} {
		if len(s.Rows) != 3 || !slices.Equal(s.Knees, wantKnees) {
			t.Errorf("%s: %d rows, knees %v; want 3 rows, knees %v", name, len(s.Rows), s.Knees, wantKnees)
		}
	}
	if len(b.MultiFault.Storms) != 1 || b.MultiFault.Storms[0].Name != "kill+stop" {
		t.Errorf("multifault storms = %v, want the one kill+stop storm", b.MultiFault.Storms)
	}
	if fails := judge(&b, &b); !slices.Contains(fails, "scenarios[C5].failed: want == 0") {
		t.Errorf("judge does not report the failed C5 trial: %v", fails)
	}
}

// healthyBench is a synthetic bundle every gate passes. It carries the
// cases a gate must not fire on: a liveproc row with no reconnect
// obligation (null) and, in both sweeps, an above-knee row with a silent
// miss.
func healthyBench() *campaignBench {
	reconnected := true
	sweep := faultrateBench{
		Rows: []faultrateBenchRow{
			{Topology: "full-mesh", LambdaPerSec: 1, Arrivals: 2, BoundWindowMS: 500, Reconciled: true},
			{Topology: "full-mesh", LambdaPerSec: 4, Arrivals: 13, Detected: 3, WorstWindowMS: 99, BoundWindowMS: 500, Reconciled: true},
			{Topology: "full-mesh", LambdaPerSec: 8, Arrivals: 22, Detected: 4, Untolerated: 1, WorstWindowMS: 319, BoundWindowMS: 500},
		},
		Knees: []faultrateKnee{{Topology: "full-mesh", KneeLambdaPerSec: 4}},
	}
	return &campaignBench{
		Schema:    benchSchema,
		Scenarios: []campaignBenchScenario{{ID: "E1", Trials: 6}, {ID: "C4", Trials: 7}},
		Live:      []liveBenchRow{{Topology: "full-mesh", Nodes: 6, F: 1, Runs: 2, WorstRecoverMS: 300, BoundMS: 603, WithinR: true}},
		LiveProc: []liveProcBenchRow{
			{Topology: "full-mesh", Nodes: 4, F: 1, Fault: "corrupt-all", RecoveryMS: 1000, BoundMS: 2053, WithinR: true},
			{Topology: "full-mesh", Nodes: 4, F: 1, Fault: "kill-restart", BoundMS: 2053, WithinR: true, Reconnected: &reconnected},
		},
		Churn: []churnBenchRow{{Topology: "full-mesh", Epochs: 3, WorstSwitchMS: 25, BoundMS: 103,
			WithinR: true, CleanChurn: true, ColdReplans: 4}},
		FaultRate: sweep,
		Saturation: saturationBench{Rows: []saturationBenchRow{{Topology: "full-mesh", Nodes: 8, F: 2,
			SustainableEPS: 35840, LoadEPS: 28700, LoadFraction: 0.8, RecoveryMS: 300, BoundMS: 603, WithinR: true}}},
		MultiFault: multifaultBench{
			faultrateBench: faultrateBench{Rows: slices.Clone(sweep.Rows), Knees: slices.Clone(sweep.Knees)},
			Storms: []multifaultStormRow{{Name: "kill-restart+partition", Topology: "full-mesh", Nodes: 4, F: 1,
				OverBudget: 6, Reconciled: 6, Flagged: true, Confined: true, ReconnectChecked: true, Reconnected: true}},
		},
		ClientSLO: []clientsloBenchRow{
			{Name: "steady", Topology: "full-mesh", Fault: "none", Sessions: 8, Ops: 1200, MaxUnavailMS: 40, BoundMS: 3200, Within: true},
			{Name: "kill-restart", Topology: "full-mesh", Fault: "kill-restart", Sessions: 8, Ops: 900, MaxUnavailMS: 2100, BoundMS: 3200, Within: true},
		},
	}
}

// TestBenchGates: the healthy bundle passes every gate, and for each rule
// a bundle that breaks only that rule fails exactly that rule, once. One
// subtest per bundle section.
func TestBenchGates(t *testing.T) {
	base := healthyBench()
	t.Run("healthy", func(t *testing.T) {
		if fails := judge(healthyBench(), base); len(fails) != 0 {
			t.Fatalf("healthy bundle fails: %v", fails)
		}
	})
	breaks := map[string]func(b *campaignBench){
		"scenarios.id":     func(b *campaignBench) { b.Scenarios = b.Scenarios[:1] },
		"scenarios.failed": func(b *campaignBench) { b.Scenarios[1].Failed = 2 },

		"live":          func(b *campaignBench) { b.Live = nil },
		"live.within_r": func(b *campaignBench) { b.Live[0].WithinR = false },

		"liveproc":             func(b *campaignBench) { b.LiveProc = nil },
		"liveproc.within_r":    func(b *campaignBench) { b.LiveProc[0].WithinR = false },
		"liveproc.reconnected": func(b *campaignBench) { *b.LiveProc[1].Reconnected = false },

		"churn":                 func(b *campaignBench) { b.Churn = nil },
		"churn.epochs":          func(b *campaignBench) { b.Churn[0].Epochs = 2 },
		"churn.within_r":        func(b *campaignBench) { b.Churn[0].WithinR = false },
		"churn.clean_churn":     func(b *campaignBench) { b.Churn[0].CleanChurn = false },
		"churn.worst_switch_ms": func(b *campaignBench) { b.Churn[0].WorstSwitchMS = 500 },
		"churn.warm_replans":    func(b *campaignBench) { b.Churn[0].WarmReplans = 2 },

		"faultrate.rows":                      func(b *campaignBench) { b.FaultRate.Rows = nil },
		"faultrate.rows.topology":             func(b *campaignBench) { b.FaultRate.Rows[0].Topology = "ring" },
		"faultrate.rows.untolerated":          func(b *campaignBench) { b.FaultRate.Rows[1].Untolerated = 2 },
		"faultrate.rows.reconciled":           func(b *campaignBench) { b.FaultRate.Rows[1].Reconciled = false },
		"faultrate.knees.knee_lambda_per_sec": func(b *campaignBench) { b.FaultRate.Knees[0].KneeLambdaPerSec = 0 },

		"saturation.rows":                 func(b *campaignBench) { b.Saturation.Rows = nil },
		"saturation.rows.sustainable_eps": func(b *campaignBench) { b.Saturation.Rows[0].SustainableEPS = 0 },
		"saturation.rows.load_fraction":   func(b *campaignBench) { b.Saturation.Rows[0].LoadFraction = 0.5 },
		"saturation.rows.within_r":        func(b *campaignBench) { b.Saturation.Rows[0].WithinR = false },

		"multifault.rows":                      func(b *campaignBench) { b.MultiFault.Rows = nil },
		"multifault.rows.topology":             func(b *campaignBench) { b.MultiFault.Rows[0].Topology = "ring" },
		"multifault.rows.untolerated":          func(b *campaignBench) { b.MultiFault.Rows[0].Untolerated = 1 },
		"multifault.rows.reconciled":           func(b *campaignBench) { b.MultiFault.Rows[0].Reconciled = false },
		"multifault.knees.knee_lambda_per_sec": func(b *campaignBench) { b.MultiFault.Knees[0].KneeLambdaPerSec = 0 },
		"multifault.storms":                    func(b *campaignBench) { b.MultiFault.Storms = nil },
		"multifault.storms.flagged":            func(b *campaignBench) { b.MultiFault.Storms[0].Flagged = false },
		"multifault.storms.reconciled":         func(b *campaignBench) { b.MultiFault.Storms[0].Reconciled = 0 },
		"multifault.storms.confined":           func(b *campaignBench) { b.MultiFault.Storms[0].Confined = false },
		"multifault.storms.reconnect_checked":  func(b *campaignBench) { b.MultiFault.Storms[0].ReconnectChecked = false },
		"multifault.storms.reconnected":        func(b *campaignBench) { b.MultiFault.Storms[0].Reconnected = false },

		"clientslo":                func(b *campaignBench) { b.ClientSLO = nil },
		"clientslo.ops":            func(b *campaignBench) { b.ClientSLO[0].Ops = 0 },
		"clientslo.errors":         func(b *campaignBench) { b.ClientSLO[0].Errors = 3 },
		"clientslo.bound_ms":       func(b *campaignBench) { b.ClientSLO[1].BoundMS = 0 },
		"clientslo.max_unavail_ms": func(b *campaignBench) { b.ClientSLO[1].MaxUnavailMS = 5000 },
		"clientslo.within":         func(b *campaignBench) { b.ClientSLO[1].Within = false },
	}
	seen := map[string]bool{}
	var sections []string
	rules := map[string][]string{}
	for _, g := range gates(healthyBench(), base) {
		id := g.id()
		if seen[id] {
			t.Errorf("rule %s appears twice in the table", id)
		}
		seen[id] = true
		if _, ok := breaks[id]; !ok {
			t.Errorf("rule %s has no breaking case", id)
			continue
		}
		section := strings.SplitN(g.section, ".", 2)[0]
		if rules[section] == nil {
			sections = append(sections, section)
		}
		rules[section] = append(rules[section], id)
	}
	for id := range breaks {
		if !seen[id] {
			t.Errorf("breaking case %s names no rule", id)
		}
	}
	for _, section := range sections {
		t.Run(section, func(t *testing.T) {
			for _, id := range rules[section] {
				cur := healthyBench()
				breaks[id](cur)
				var broken []string
				for _, g := range gates(cur, base) {
					for range g.bad {
						broken = append(broken, g.id())
					}
				}
				if len(broken) != 1 || broken[0] != id {
					t.Errorf("breaking only %s: broken rules %v, want exactly [%s]; failures %v", id, broken, id, judge(cur, base))
				}
			}
		})
	}
}

// TestFaultModelCitationsAreGated: every bench:<section> FAULT_MODEL.md
// cites as proof has at least one rule in the gates table.
func TestFaultModelCitationsAreGated(t *testing.T) {
	src, err := os.ReadFile("FAULT_MODEL.md")
	if err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, g := range gates(&campaignBench{}, &campaignBench{}) {
		gated[strings.SplitN(g.section, ".", 2)[0]] = true
	}
	cites := regexp.MustCompile("`bench:([a-z]+)`").FindAllStringSubmatch(string(src), -1)
	if len(cites) == 0 {
		t.Fatal("FAULT_MODEL.md cites no bench section")
	}
	for _, m := range cites {
		if !gated[m[1]] {
			t.Errorf("FAULT_MODEL.md cites bench:%s, which no gate judges", m[1])
		}
	}
}
