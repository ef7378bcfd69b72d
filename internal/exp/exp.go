// Package exp implements the reproduction experiments E1–E10 (see
// DESIGN.md §3 and EXPERIMENTS.md) plus the campaign sweep families C1–C3.
// "Fault Tolerance and the Five-Second Rule" is a HotOS position paper
// without numbered tables or figures, so each experiment regenerates one
// of its quantitative *claims*; the tables printed here are the
// repository's equivalent of the paper's evaluation.
//
// Every experiment is a declarative campaign.Scenario: an enumeration of
// independent trials (each owning its own deterministic simulation
// kernel) plus an aggregation fold into plain-text tables. The scenario
// table (Scenarios) is the single source of truth and campaign.Run the
// one way to run it, so the tables are byte-identical for any worker
// count. `btrcampaign -family paper` prints the E1–E10 tables, `-only E6`
// one of them.
package exp

import (
	"fmt"
	"io"
	"sort"

	"btr/internal/campaign"
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// Scenarios lists every scenario in order: the paper reproductions E1–E10,
// the simulated campaign sweep families C1–C4, the live wall-clock soak
// family C5, the membership-churn family C6, the multi-process TCP
// deployment family C7, the high-fault-rate family C8, the saturation
// family C9, the multifault family C10, and the client-SLO family C11.
// Families: "paper", "campaign", "churn", and "faultrate" are
// deterministic (byte-identical tables for any seed+worker count);
// "live", "liveproc", "saturation", "multifault", and "clientslo" run
// on the wall clock and their tables carry real measured timings.
func Scenarios() []campaign.Scenario {
	return []campaign.Scenario{
		e1Scenario(),
		e2Scenario(),
		e3Scenario(),
		e4Scenario(),
		e5Scenario(),
		e6Scenario(),
		e7Scenario(),
		e8Scenario(),
		e9Scenario(),
		e10Scenario(),
		c1Colluding(),
		c2Topology(),
		c3ClockSkew(),
		c4PlanCache(),
		C5Scenario(),
		C6Scenario(),
		C7Scenario(),
		C8Scenario(),
		C9Scenario(),
		C10Scenario(),
		C11Scenario(),
	}
}

// DeterministicScenarios returns every scenario whose tables are pinned
// byte-identical (everything except the wall-clock families "live",
// "liveproc", "saturation", "multifault", and "clientslo" — the C10
// storms and C11 client loads run real processes; C10's sweep half has
// a dedicated byte-identity test).
func DeterministicScenarios() []campaign.Scenario {
	var out []campaign.Scenario
	for _, sc := range Scenarios() {
		switch sc.Family {
		case "live", "liveproc", "saturation", "multifault", "clientslo":
		default:
			out = append(out, sc)
		}
	}
	return out
}

// PaperScenarios returns only the E1–E10 paper reproductions.
func PaperScenarios() []campaign.Scenario {
	var out []campaign.Scenario
	for _, sc := range Scenarios() {
		if sc.Family == "paper" {
			out = append(out, sc)
		}
	}
	return out
}

// WriteResult renders one scenario result as text: a header line, then
// its tables.
func WriteResult(w io.Writer, r campaign.ScenarioResult) {
	fmt.Fprintf(w, "---- %s: %s ----\n", r.ID, r.Claim)
	for _, t := range r.Tables {
		fmt.Fprintln(w, t.String())
	}
}

// --- shared fixtures --------------------------------------------------------

// chainSystem builds the standard 3-task chain deployment.
func chainSystem(seed uint64, f, nodes int, horizon uint64) (*core.System, error) {
	return core.NewSystem(core.Config{
		Seed:     seed,
		Workload: flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
		Topology: network.FullMesh(nodes, 20_000_000, 50*sim.Microsecond),
		PlanOpts: plan.DefaultOptions(f, 500*sim.Millisecond),
		Horizon:  horizon,
	})
}

func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// dominantEvidence names the evidence kind to report for a run: want if it
// was observed, otherwise the lowest-numbered observed kind (sorted so the
// choice is deterministic).
func dominantEvidence(byKind map[evidence.Kind]int, want evidence.Kind) string {
	if byKind[want] > 0 {
		return want.String()
	}
	kinds := make([]int, 0, len(byKind))
	for k, c := range byKind {
		if c > 0 {
			kinds = append(kinds, int(k))
		}
	}
	sort.Ints(kinds)
	if len(kinds) == 0 {
		return ""
	}
	return evidence.Kind(kinds[0]).String()
}

// failedRow renders a placeholder first cell for a failed trial's table
// row.
func failedRow(name string) string { return name + " [trial failed]" }
