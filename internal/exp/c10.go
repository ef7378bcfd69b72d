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
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/faultrate"
	"btr/internal/flow"
	"btr/internal/live"
	"btr/internal/metrics"
	"btr/internal/plan"
	"btr/internal/sim"
)

// c10Victims extends c8Victims with each victim's hosted sink logicals:
// the sink-bound behaviors (corrupt-sink, skip-actuation) draw their
// target from Victim.Sinks.
func c10Victims(s *core.System, workload *flow.Graph) []faultrate.Victim {
	isSink := map[flow.TaskID]bool{}
	for _, sk := range workload.Sinks() {
		isSink[sk] = true
	}
	victims := c8Victims(s)
	for i := range victims {
		for _, l := range victims[i].Logicals {
			if isSink[l] {
				victims[i].Sinks = append(victims[i].Sinks, l)
			}
		}
	}
	return victims
}

// runC10Sweep executes one (topology, λ) deployment exactly like
// runC8Case, but with the arrival process drawing the extended
// catalog behaviors.
func runC10Sweep(c c8Case, lambda float64, seed uint64, quick bool) (C8Row, error) {
	const period = 25 * sim.Millisecond
	horizon := uint64(160)
	if quick {
		horizon = 80
	}
	heal, forgive, bound := c8Timing(period)
	workload := flow.Chain(3, period, sim.Millisecond, 64, flow.CritA)
	s, err := core.NewSystem(core.Config{
		Seed:         seed,
		Workload:     workload,
		Topology:     c.mk(),
		PlanOpts:     plan.DefaultOptions(c.f, 500*sim.Millisecond),
		Horizon:      horizon,
		ForgiveAfter: forgive,
	})
	if err != nil {
		return C8Row{}, err
	}
	// Arrivals stop one reconcile bound before the horizon: the extended
	// behaviors convict on watchdog pace (a delay's damage IS lateness,
	// so conviction trails injection by up to hold + margin), and an
	// episode whose detect-and-reconcile lifecycle is cut off by the end
	// of the run would be judged on damage whose flagging never had time
	// to arrive.
	arrivals := faultrate.Schedule(faultrate.Params{
		Lambda: lambda, Heal: heal, Forgive: forgive, Period: period,
		Start: 4 * period, Horizon: sim.Time(horizon)*period - bound,
		F: c.f, Seed: seed,
		Behaviors: faultrate.ExtendedCatalog(),
	}, c10Victims(s, workload))
	if err := faultrate.Script(arrivals).Install(s, period); err != nil {
		return C8Row{}, err
	}
	rep := s.Run()
	slack := rep.RNeeded + period
	out := faultrate.Classify(rep, arrivals, c.f, slack, slack)
	row := C8Row{
		Topology: c.kind, Lambda: lambda, Arrivals: len(arrivals),
		Periods: out.Periods, Tolerated: out.Tolerated,
		Detected: out.Detected, Untolerated: out.Untolerated,
		Windows: len(out.Windows), WorstWindow: out.WorstWindow,
		Bound: bound, Reconciled: out.WorstWindow <= bound,
	}
	for _, a := range arrivals {
		if a.ActiveAtArrival > row.PeakActive {
			row.PeakActive = a.ActiveAtArrival
		}
	}
	return row, nil
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

// c10SweepSpecs builds the deterministic sweep half's trial specs.
func c10SweepSpecs(p campaign.Params) []campaign.TrialSpec {
	var specs []campaign.TrialSpec
	for _, c := range c8Cases(p) {
		for _, lambda := range c8Lambdas(p) {
			c, lambda := c, lambda
			specs = append(specs, campaign.TrialSpec{
				Name: fmt.Sprintf("sweep/%s/lambda=%g", c.kind, lambda),
				Run: func(t *campaign.T) (any, error) {
					return runC10Sweep(c, lambda, t.TrialSeed(), p.Quick)
				},
			})
		}
	}
	return specs
}

// c10SweepTable aggregates the sweep trials (aligned with c10SweepSpecs)
// into the C8-shaped table plus knee notes.
func c10SweepTable(p campaign.Params, trials []campaign.TrialResult) *metrics.Table {
	t := metrics.NewTable("C10: multifault sweep (Poisson arrivals drawing corrupt-sink / delay / skip-actuation)",
		"topology", "λ/s", "arrivals", "peak active", "periods", "tolerated", "detected", "untolerated", "windows", "worst window", "bound", "reconciled")
	byTopo := map[string][]C8Row{}
	i := 0
	for _, c := range c8Cases(p) {
		for _, lambda := range c8Lambdas(p) {
			row, ok := campaign.Value[C8Row](trials[i])
			i++
			if !ok {
				t.AddRow(failedRow(c.kind), fmt.Sprintf("%g", lambda), "-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			byTopo[c.kind] = append(byTopo[c.kind], row)
			t.AddRow(row.Topology, fmt.Sprintf("%g", row.Lambda), row.Arrivals, row.PeakActive,
				row.Periods, row.Tolerated, row.Detected, row.Untolerated,
				row.Windows, row.WorstWindow, row.Bound, boolMark(row.Reconciled))
		}
	}
	for _, c := range c8Cases(p) {
		t.Note("%s: knee λ = %g/s (largest swept rate with zero untolerated periods and every degraded window within the reconcile bound at and below it)",
			c.kind, C8Knee(byTopo[c.kind]))
	}
	t.Note("corrupt-sink and skip-actuation target hosted sink replicas (judged at the plant); delay holds outputs 4 periods past the transport boundary; skip-actuation is masked by sink replication and consumes no fault budget (it never convicts)")
	return t
}

// C10Scenario returns the multifault scenario: the deterministic
// non-catalog sweep plus the wall-clock concurrent storms. Exported so
// the bundle emitter can run it standalone.
func C10Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "C10",
		Family: "multifault",
		Claim:  "the non-catalog behaviors sweep clean to a positive knee, and concurrent > f process-fault storms are flagged over-budget, confined to the fault window, and heal with every link re-established",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			specs := c10SweepSpecs(p)
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
			nSweep := len(c10SweepSpecs(p))
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
		Trials: func(p campaign.Params) []campaign.TrialSpec { return c10SweepSpecs(p) },
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			return []*metrics.Table{c10SweepTable(p, trials)}
		},
	}
}

// MultiFaultKinds lists the C10 sweep topology families (the full,
// non-quick set), for standalone benchmarking.
func MultiFaultKinds() []string { return FaultRateKinds() }

// MultiFaultLambdas lists the full swept λ grid, ascending.
func MultiFaultLambdas() []float64 { return FaultRateLambdas() }

// RunMultiFaultBench runs one (topology, λ) C10 sweep case standalone
// (the bundle emitter's entry point).
func RunMultiFaultBench(kind string, lambda float64, seed uint64) (C8Row, error) {
	for _, c := range c8Cases(campaign.Params{}) {
		if c.kind == kind {
			return runC10Sweep(c, lambda, seed, false)
		}
	}
	return C8Row{}, fmt.Errorf("exp: unknown multifault topology %q", kind)
}

// MultiFaultStorms lists the scripted storm names (full set).
func MultiFaultStorms() []string {
	var out []string
	for _, st := range c10Storms(campaign.Params{}) {
		out = append(out, st.name)
	}
	return out
}

// RunMultiFaultStormBench runs one scripted storm standalone. The caller
// must serialize wall-clock runs (the campaign path holds liveGate; a
// bench harness is naturally serial).
func RunMultiFaultStormBench(name string, seed uint64) (C10StormRow, error) {
	for _, st := range c10Storms(campaign.Params{}) {
		if st.name == name {
			return runC10Storm(st, seed)
		}
	}
	return C10StormRow{}, fmt.Errorf("exp: unknown multifault storm %q", name)
}
