package exp

import (
	"fmt"
	"strings"

	"btr/internal/adversary"
	"btr/internal/baseline"
	"btr/internal/campaign"
	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// --- E2: replication cost vs f ----------------------------------------------

type e2Row struct {
	F        int
	Protocol string
	Replicas int
	Util     string
	Bytes    int64
	Sched    bool
}

// e2Scenario reproduces §1's "detection requires fewer replicas than
// masking": replica counts, peak CPU utilization, and per-period network
// bytes for BTR vs BFT vs ZZ vs unreplicated, as f grows.
func e2Scenario() campaign.Scenario {
	fsOf := func(p campaign.Params) []int {
		if p.Quick {
			return []int{1, 2}
		}
		return []int{1, 2, 3}
	}
	return campaign.Scenario{
		ID:     "E2",
		Family: "paper",
		Claim:  "detection requires fewer replicas than masking (f+1 vs 3f+1)",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, f := range fsOf(p) {
				f := f
				specs = append(specs, campaign.TrialSpec{Name: fmt.Sprintf("f=%d", f), Run: func(t *campaign.T) (any, error) {
					g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
					nodes := 3*f + 1 + 3 // enough for BFT anti-affinity plus headroom
					topo := network.FullMesh(nodes, 20_000_000, 50*sim.Microsecond)
					var rows []e2Row
					for _, pr := range []baseline.Protocol{baseline.BTR, baseline.BFTMask, baseline.ZZReactive, baseline.Unreplicated} {
						util, bytes := baseline.Utilization(pr, g, topo, f)
						ns, _ := baseline.ReplicaFactor(pr, f)
						sched := util > 0
						utilStr := "-"
						if sched {
							utilStr = fmt.Sprintf("%.3f", util)
						}
						rows = append(rows, e2Row{F: f, Protocol: pr.String(), Replicas: ns, Util: utilStr, Bytes: bytes, Sched: sched})
					}
					return rows, nil
				}})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("E2: replication cost vs fault bound f (chain workload)",
				"f", "protocol", "replicas/task", "peak CPU util", "net bytes/period", "schedulable")
			fs := fsOf(p)
			for i, tr := range trials {
				rows, ok := campaign.Value[[]e2Row](tr)
				if !ok {
					t.AddRow(failedRow(fmt.Sprintf("f=%d", fs[i])), "-", "-", "-", "-", "-")
					continue
				}
				for _, r := range rows {
					t.AddRow(r.F, r.Protocol, r.Replicas, r.Util, r.Bytes, boolMark(r.Sched))
				}
			}
			t.Note("BTR replicas = f+1 (+checkers); BFT = 3f+1; bytes include per-protocol framing (BTR carries accountability attachments)")
			return []*metrics.Table{t}
		},
	}
}

// --- E3: minimum clock frequency --------------------------------------------

type e3Row struct {
	Workload string
	Protocol string
	MinSpeed float64
	Rel      string
}

// e3Scenario reproduces §2's cost framing: CPS designers pick "the least
// powerful CPU that will do the job, at the lowest possible clock
// frequency" — what is the minimum speed factor per protocol?
func e3Scenario() campaign.Scenario {
	workloadsOf := func(p campaign.Params) []*flow.Graph {
		ws := []*flow.Graph{
			flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
			flow.ForkJoin(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritB),
		}
		if p.Quick {
			ws = ws[:1]
		}
		return ws
	}
	return campaign.Scenario{
		ID:     "E3",
		Family: "paper",
		Claim:  "BFT's strong guarantees cost clock frequency that CPS designers are reluctant to pay (§2)",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, g := range workloadsOf(p) {
				g := g
				specs = append(specs, campaign.TrialSpec{Name: g.Name, Run: func(t *campaign.T) (any, error) {
					topo := network.FullMesh(8, 20_000_000, 50*sim.Microsecond)
					var ref float64 // the unreplicated minimum speed: the first row
					var rows []e3Row
					for _, pr := range []baseline.Protocol{baseline.Unreplicated, baseline.BTR, baseline.BFTMask} {
						ms := baseline.MinSpeed(pr, g, topo, 1)
						if pr == baseline.Unreplicated {
							ref = ms
						}
						rel := "-"
						if ms > 0 && ref > 0 {
							rel = fmt.Sprintf("%.2fx", ms/ref)
						}
						rows = append(rows, e3Row{Workload: g.Name, Protocol: pr.String(), MinSpeed: ms, Rel: rel})
					}
					return rows, nil
				}})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("E3: minimum CPU speed factor to meet all deadlines (f=1)",
				"workload", "protocol", "min speed", "vs unreplicated")
			for _, tr := range trials {
				rows, ok := campaign.Value[[]e3Row](tr)
				if !ok {
					t.AddRow(failedRow(tr.Name), "-", "-", "-")
					continue
				}
				for _, r := range rows {
					t.AddRow(r.Workload, r.Protocol, fmt.Sprintf("%.3f", r.MinSpeed), r.Rel)
				}
			}
			t.Note("binary search over the speed factor; higher = needs a faster (more expensive, hotter) CPU")
			return []*metrics.Table{t}
		},
	}
}

// --- E5: mixed-criticality degradation --------------------------------------

type e5PlanRow struct {
	Faults  int
	Running string
	Shed    string
	Util    float64
	AOK     bool
}

type e5RuntimeRow struct {
	Sink   string
	Crit   string
	Wrong  int
	Missed int
}

// e5Scenario reproduces the fine-grained degradation claim (§1, §4.1): as
// faults accumulate, the planner sheds the least critical sinks first and
// the flight-critical outputs keep their deadlines.
func e5Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "E5",
		Family: "paper",
		Claim:  "on faults, disable less critical tasks and reallocate their resources to more critical ones",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			return []campaign.TrialSpec{
				{Name: "planner-degradation", Run: func(t *campaign.T) (any, error) {
					g := flow.Avionics(25 * sim.Millisecond)
					topo := network.FullMesh(8, 20_000_000, 50*sim.Microsecond)
					strategy, err := t.Strategies.Build(g, topo, plan.DefaultOptions(2, sim.Second))
					if err != nil {
						return nil, err
					}
					var rows []e5PlanRow
					for _, key := range []string{"", "0", "0,1"} {
						pl := strategy.Plans[key]
						var running, shed []string
						shedSet := map[flow.TaskID]bool{}
						for _, sk := range pl.ShedSinks {
							shedSet[sk] = true
							shed = append(shed, fmt.Sprintf("%s(%v)", sk, g.Tasks[sk].Crit))
						}
						for _, sk := range g.Sinks() {
							if !shedSet[sk] {
								running = append(running, fmt.Sprintf("%s(%v)", sk, g.Tasks[sk].Crit))
							}
						}
						_, util := pl.Table.MaxUtilization()
						// Flight-control deadline holds in the mode's static table.
						aOK := true
						for _, id := range pl.Aug.TaskIDs() {
							logical, _ := plan.SplitReplica(id)
							if logical == "elevator" && pl.Table.Finish(id) > g.Tasks["elevator"].Deadline {
								aOK = false
							}
						}
						rows = append(rows, e5PlanRow{
							Faults:  len(pl.Faults.Nodes()),
							Running: strings.Join(running, " "),
							Shed:    strings.Join(shed, " "),
							Util:    util,
							AOK:     aOK,
						})
					}
					return rows, nil
				}},
				{Name: "runtime-crash-check", Run: func(t *campaign.T) (any, error) {
					g := flow.Avionics(25 * sim.Millisecond)
					sys, err := core.NewSystem(core.Config{
						Seed: p.Seed, Workload: g,
						Topology: network.FullMesh(8, 20_000_000, 50*sim.Microsecond),
						PlanOpts: plan.DefaultOptions(2, sim.Second), Horizon: 30,
						Strategies: t.Strategies,
					})
					if err != nil {
						return nil, err
					}
					adversary.Crash(0, 4*g.Period).Install(sys)
					rep := sys.Run()
					var rows []e5RuntimeRow
					for _, sk := range []flow.TaskID{"elevator", "valve"} {
						bad := rep.PerSink[sk].FalseIntervals(rep.Horizon)
						rows = append(rows, e5RuntimeRow{
							Sink: string(sk), Crit: fmt.Sprint(g.Tasks[sk].Crit), Wrong: len(bad),
						})
					}
					return rows, nil
				}},
			}
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("E5: mixed-criticality degradation (avionics on 8 nodes, f=2)",
				"faults", "running sinks", "shed sinks", "peak CPU util", "A-deadline ok")
			if rows, ok := campaign.Value[[]e5PlanRow](trials[0]); ok {
				for _, r := range rows {
					t.AddRow(r.Faults, r.Running, r.Shed, fmt.Sprintf("%.3f", r.Util), boolMark(r.AOK))
				}
			} else {
				t.AddRow(failedRow("planner-degradation"), "-", "-", "-", "-")
			}
			t2 := metrics.NewTable("E5b: runtime check — elevator correctness across one crash",
				"sink", "criticality", "wrong periods", "missed periods")
			if rows, ok := campaign.Value[[]e5RuntimeRow](trials[1]); ok {
				for _, r := range rows {
					t2.AddRow(r.Sink, r.Crit, r.Wrong, r.Missed)
				}
			} else {
				t2.AddRow(failedRow("runtime-crash-check"), "-", "-", "-")
			}
			return []*metrics.Table{t, t2}
		},
	}
}
