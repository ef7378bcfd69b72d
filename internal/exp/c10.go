package exp

// C10: the multifault regime — the two fault-model frontiers C8 and C7
// left open, in one family. The sweep half drives the C8 arrival
// process, but drawing the *extended* catalog behaviors (corrupt-sink and
// skip-actuation judged at the plant, delay at the transport boundary)
// with the same λ grid, knee locator, and tolerated/detected/untolerated
// classification — simulated time, byte-deterministic across workers
// like C8. The storm half drives live.RunOrchestrator with a fault
// *schedule*: ≥ 2 concurrent process-level faults with independent heal
// times against a parole-clock multi-process deployment, where the
// classic guarantee is suspended and the verdict is detect-and-apologize
// — some node must flood a signed over-budget verdict, every bad
// interval must be fault-attributable (confined), and every repaired
// victim's links must re-establish. Storm trials are wall-clock, so the
// family joins "live"/"liveproc"/"saturation" outside the campaign
// determinism pin; the sweep half has its own cross-worker byte-identity
// test.

import (
	"fmt"
	"strings"

	"btr/internal/adversary"
	"btr/internal/campaign"
	"btr/internal/evidence"
	"btr/internal/faultrate"
	"btr/internal/flow"
	"btr/internal/live"
	"btr/internal/metrics"
)

// addSinks adds each victim's hosted sink logicals to c8Victims' list:
// the sink-bound behaviors (corrupt-sink, skip-actuation) draw their
// target from Victim.Sinks.
func addSinks(victims []faultrate.Victim, workload *flow.Graph) {
	isSink := map[flow.TaskID]bool{}
	for _, sk := range workload.Sinks() {
		isSink[sk] = true
	}
	for i := range victims {
		for _, l := range victims[i].Logicals {
			if isSink[l] {
				victims[i].Sinks = append(victims[i].Sinks, l)
			}
		}
	}
}

// c10Storm is one scripted concurrent process-fault storm.
type c10Storm struct {
	name   string
	topo   string
	nodes  int
	f      int
	faults adversary.Script
}

// c10Storms lists the scripted storms: two concurrent process-level
// faults each — more than f — with independent injection and heal
// clocks overlapping mid-run.
func c10Storms(p campaign.Params) []c10Storm {
	storms := []c10Storm{
		{"kill-restart+partition", "full-mesh", 4, 1, adversary.Script{
			{Behavior: "kill-restart", Node: -1, At: 3 * c7Period, Heal: 3 * c7Period},
			{Behavior: "partition", Node: -1, At: 5 * c7Period, Heal: 3 * c7Period},
		}},
		{"stop+kill-restart", "full-mesh", 4, 1, adversary.Script{
			{Behavior: "stop", Node: -1, At: 3 * c7Period, Heal: 3 * c7Period},
			{Behavior: "kill-restart", Node: -1, At: 5 * c7Period, Heal: 3 * c7Period},
		}},
	}
	if p.Quick {
		storms = storms[:1]
	}
	return storms
}

// C10StormRow is one storm's verdict (exported for the bundle
// emitter, which records these as the BENCH_campaign.json multifault
// storms).
type C10StormRow struct {
	Name     string
	Topology string
	Nodes    int
	F        int
	Faults   string // human-readable schedule
	// OverBudget/Reconciled total the budget verdicts the node processes
	// flooded; Flagged is OverBudget > 0 — the > f storm was never
	// silent.
	OverBudget int
	Reconciled int
	Flagged    bool
	// Confined: every bad interval of the plant report lies inside the
	// fault-attributable window [first fault, last repair + parole + R +
	// slack].
	Confined bool
	// ReconnectChecked/Reconnected fold the per-victim transport
	// verdicts: every repaired victim's links re-established.
	ReconnectChecked bool
	Reconnected      bool
}

// desc renders the storm's schedule in the text form, entries
// space-separated: "kind@at+heal ...".
func (st c10Storm) desc() string {
	parts := make([]string, len(st.faults))
	for i, f := range st.faults {
		parts[i] = f.Format(c7Period)
	}
	return strings.Join(parts, " ")
}

// runC10Storm drives one scripted storm against a real multi-process
// deployment (wall clock; the caller holds liveGate).
func runC10Storm(st c10Storm, seed uint64) (C10StormRow, error) {
	res, err := live.RunOrchestrator(live.OrchestratorConfig{
		Topo: st.topo, Nodes: st.nodes, F: st.f, Seed: seed,
		Period: c7Period, Margin: c7Margin, Horizon: 16,
		Faults:  st.faults,
		Forgive: 2 * c7Period,
	})
	if err != nil {
		return C10StormRow{}, err
	}
	verdicts := res.Report.EvidenceByKind
	row := C10StormRow{
		Name: st.name, Topology: st.topo, Nodes: st.nodes, F: st.f,
		Faults:     st.desc(),
		OverBudget: verdicts[evidence.KindOverBudget], Reconciled: verdicts[evidence.KindReconciled],
		Flagged:  verdicts[evidence.KindOverBudget] > 0,
		Confined: res.Confined,
	}
	row.ReconnectChecked, row.Reconnected = foldReconnect(res.Storm)
	if row.ReconnectChecked && !row.Reconnected {
		return row, fmt.Errorf("storm %s: a victim did not re-establish: %+v", st.name, res.Storm)
	}
	return row, nil
}

// c10SweepTable aggregates the sweep trials into the C8-shaped table.
func c10SweepTable(p campaign.Params, trials []campaign.TrialResult) *metrics.Table {
	return sweepTable(p, trials, "C10: multifault sweep (Poisson arrivals drawing corrupt-sink / delay / skip-actuation)", false,
		"corrupt-sink and skip-actuation target hosted sink replicas (judged at the plant); delay holds outputs 4 periods past the transport boundary; skip-actuation is masked by sink replication and consumes no fault budget (it never convicts)")
}

// c10Scenario returns the multifault scenario: the deterministic
// non-catalog sweep plus the wall-clock concurrent storms.
func c10Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "C10",
		Family: "multifault",
		Claim:  "the non-catalog behaviors sweep clean to a positive knee, and concurrent > f process-fault storms are flagged over-budget, confined to the fault window, and heal with every link re-established",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			specs := sweepSpecs(p, "sweep", true)
			for _, st := range c10Storms(p) {
				st := st
				specs = append(specs, campaign.TrialSpec{
					Name: fmt.Sprintf("storm/%s", st.name),
					Run: func(t *campaign.T) (any, error) {
						liveGate.Lock()
						defer liveGate.Unlock()
						return runC10Storm(st, t.TrialSeed())
					},
				})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			nSweep := len(sweepSpecs(p, "sweep", true))
			sweep := c10SweepTable(p, trials[:nSweep])
			if note := campaign.FailNote(trials); note != "" {
				sweep.Note("%s", note)
			}
			t := metrics.NewTable(fmt.Sprintf("C10: concurrent process-fault storms (> f faults active, period %v, parole %v)", c7Period, 2*c7Period),
				"storm", "topology", "nodes", "schedule", "over-budget", "reconciled", "flagged", "confined", "reconnect")
			storms := c10Storms(p)
			for i, st := range storms {
				row, ok := campaign.Value[C10StormRow](trials[nSweep+i])
				if !ok {
					t.AddRow(failedRow(st.name), st.topo, st.nodes, st.desc(), "-", "-", "-", "-", "-")
					continue
				}
				reconnect := "n/a"
				if row.ReconnectChecked {
					reconnect = boolMark(row.Reconnected)
				}
				t.AddRow(row.Name, row.Topology, row.Nodes, row.Faults,
					row.OverBudget, row.Reconciled, boolMark(row.Flagged), boolMark(row.Confined), reconnect)
			}
			t.Note("wall-clock multi-process runs — budget-verdict counts vary run to run; the invariants are the 'flagged', 'confined', and 'reconnect' columns")
			return []*metrics.Table{sweep, t}
		},
	}
}

// c10SweepOnlyScenario is the sweep half alone — the byte-determinism
// test renders it at different worker counts (the storms are wall-clock
// and exempt, like every live family).
func c10SweepOnlyScenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "C10-sweep",
		Family: "multifault",
		Claim:  "non-catalog behavior sweep, deterministic half only",
		Trials: func(p campaign.Params) []campaign.TrialSpec { return sweepSpecs(p, "sweep", true) },
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			return []*metrics.Table{c10SweepTable(p, trials)}
		},
	}
}
