package exp

import (
	"fmt"

	"btr/internal/adversary"
	"btr/internal/campaign"
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// --- E6: evidence DoS -------------------------------------------------------

type e6Point struct {
	Rate     int
	Share    float64
	Reserved bool
}

func e6Points(p campaign.Params) []e6Point {
	rates := []int{0, 4, 16, 64}
	if p.Quick {
		rates = []int{0, 16}
	}
	var out []e6Point
	for _, reserved := range []bool{true, false} {
		share := 0.2
		if !reserved {
			share = 0.0001 // effectively no reservation; single shared channel behavior
		}
		for _, rate := range rates {
			out = append(out, e6Point{Rate: rate, Share: share, Reserved: reserved})
		}
	}
	return out
}

type e6Row struct {
	Converged string
	Recovery  sim.Time
	Bound     sim.Time
	Convicted bool
}

// e6Scenario reproduces §4.3: evidence distribution completes in bounded
// time even under a bogus-evidence flood, *because of* the reserved
// bandwidth share and validate-before-forward; the ablation (share = 0)
// shows the failure mode the design prevents.
func e6Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "E6",
		Family: "paper",
		Claim:  "evidence distribution completes in bounded time despite DoS (reserved bandwidth + validate-before-forward + endorsement)",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, pt := range e6Points(p) {
				pt := pt
				specs = append(specs, campaign.TrialSpec{
					Name: fmt.Sprintf("share=%.4f/rate=%d", pt.Share, pt.Rate),
					Run: func(t *campaign.T) (any, error) {
						g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
						netCfg := network.Config{EvidenceShare: pt.Share}
						opts := plan.DefaultOptions(2, sim.Second)
						opts.Sched.EvidenceShare = pt.Share
						sys, err := core.NewSystem(core.Config{
							Seed: p.Seed, Workload: g,
							Topology: network.FullMesh(8, 20_000_000, 50*sim.Microsecond),
							PlanOpts: opts, Net: netCfg, Horizon: 45,
						})
						if err != nil {
							return nil, err
						}
						period := g.Period
						flooder := network.NodeID(7)
						omitter := sys.Strategy.Plans[""].Assign["c1#0"]
						if omitter == flooder {
							omitter = sys.Strategy.Plans[""].Assign["c1#1"]
						}
						if pt.Rate > 0 {
							adversary.FloodBogus(flooder, pt.Rate, 2*period).Install(sys)
						}
						faultAt := 8 * period
						adversary.Omit(omitter, "c1", faultAt).Install(sys)
						rep := sys.Run()

						convergedAt := sim.Never
						for _, st := range rep.SwitchTimes {
							if st > convergedAt || convergedAt == sim.Never {
								convergedAt = st
							}
						}
						convStr := "never"
						if convergedAt != sim.Never && convergedAt >= faultAt {
							convStr = (convergedAt - faultAt).String()
						}
						return e6Row{
							Converged: convStr,
							Recovery:  rep.MaxRecovery(),
							Bound:     rep.RNeeded,
							Convicted: pt.Rate == 0 || rep.EvidenceByKind[evidence.KindBogus] > 0,
						}, nil
					},
				})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("E6: evidence distribution under bogus-evidence flood (chain, f=2, 8 nodes)",
				"flood rate/period", "evidence share", "fault-to-converged", "recovery", "within R", "flooder convicted")
			pts := e6Points(p)
			for i, tr := range trials {
				row, ok := campaign.Value[e6Row](tr)
				if !ok {
					t.AddRow(failedRow(fmt.Sprint(pts[i].Rate)), fmt.Sprintf("%.2f", pts[i].Share), "-", "-", "-", "-")
					continue
				}
				t.AddRow(pts[i].Rate, fmt.Sprintf("%.2f", pts[i].Share), row.Converged, row.Recovery,
					boolMark(row.Recovery <= row.Bound), boolMark(row.Convicted))
			}
			t.Note("share=0.00: ablation without the reserved evidence class — flood and foreground contend on one channel")
			return []*metrics.Table{t}
		},
	}
}

// --- E7: planner scalability ------------------------------------------------

type e7Cfg struct{ nodes, tasks, f int }

func e7Cfgs(p campaign.Params) []e7Cfg {
	cfgs := []e7Cfg{{6, 3, 1}, {8, 5, 1}, {8, 3, 2}, {10, 5, 2}, {12, 8, 2}}
	if p.Quick {
		cfgs = cfgs[:3]
	}
	return cfgs
}

type e7Row struct {
	Plans    int
	Trans    int
	MaxState int64
	R        sim.Time
	Err      string
}

type e7AbRow struct {
	Name  string
	Moved float64
	State float64
	Worst sim.Time
}

// e7Scenario characterizes the offline planner (§4.1): strategy size and
// structure vs topology/workload/f, plus the minimal-diff ablation (the
// "game tree" strategic component). Planning wall-clock time is reported
// per trial by the campaign runner (it is machine-dependent and therefore
// kept out of the deterministic tables).
func e7Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "E7",
		Family: "paper",
		Claim:  "strategies are computed offline; careful plan derivation keeps transitions cheap (the game-tree component)",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, c := range e7Cfgs(p) {
				c := c
				specs = append(specs, campaign.TrialSpec{
					Name: fmt.Sprintf("plan/%dn-%dt-f%d", c.nodes, c.tasks, c.f),
					Run: func(t *campaign.T) (any, error) {
						g := flow.Chain(c.tasks, 30*sim.Millisecond, 800*sim.Microsecond, 64, flow.CritB)
						topo := network.FullMesh(c.nodes, 20_000_000, 50*sim.Microsecond)
						s, err := plan.Build(g, topo, plan.DefaultOptions(c.f, sim.Second))
						if err != nil {
							return e7Row{Err: err.Error()}, nil
						}
						var maxState int64
						for _, tr := range s.Trans {
							if tr.StateBytes > maxState {
								maxState = tr.StateBytes
							}
						}
						return e7Row{Plans: len(s.Plans), Trans: len(s.Trans), MaxState: maxState, R: s.RNeeded}, nil
					},
				})
			}
			for _, minimal := range []bool{true, false} {
				minimal := minimal
				name := "derive/minimal-diff"
				if !minimal {
					name = "derive/naive-replan"
				}
				specs = append(specs, campaign.TrialSpec{Name: name, Run: func(t *campaign.T) (any, error) {
					g := flow.Avionics(25 * sim.Millisecond)
					topo := network.FullMesh(6, 20_000_000, 50*sim.Microsecond)
					opts := plan.DefaultOptions(1, sim.Second)
					opts.MinimalDiff = minimal
					s, err := plan.Build(g, topo, opts)
					if err != nil {
						return nil, err
					}
					var moved, state int64
					var worst sim.Time
					n := 0
					for _, tr := range s.Trans {
						moved += int64(len(tr.Moved))
						state += tr.StateBytes
						if tr.Bound > worst {
							worst = tr.Bound
						}
						n++
					}
					label := "minimal-diff"
					if !minimal {
						label = "naive replan"
					}
					return e7AbRow{
						Name:  label,
						Moved: float64(moved) / float64(n),
						State: float64(state) / float64(n),
						Worst: worst,
					}, nil
				}})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("E7: planner scalability",
				"nodes", "tasks", "f", "plans", "transitions", "max transition state", "R achieved")
			cfgs := e7Cfgs(p)
			for i, c := range cfgs {
				row, ok := campaign.Value[e7Row](trials[i])
				if !ok {
					t.AddRow(c.nodes, c.tasks, c.f, failedRow("plan"), "-", "-", "-")
					continue
				}
				if row.Err != "" {
					t.AddRow(c.nodes, c.tasks, c.f, "-", "-", "-", fmt.Sprintf("error: %v", row.Err))
					continue
				}
				t.AddRow(c.nodes, c.tasks, c.f, row.Plans, row.Trans,
					fmt.Sprintf("%dB", row.MaxState), row.R)
			}
			t2 := metrics.NewTable("E7b: plan derivation ablation (avionics, 6 nodes, f=1)",
				"derivation", "avg moved replicas", "avg state moved", "max transition bound")
			for _, tr := range trials[len(cfgs):] {
				row, ok := campaign.Value[e7AbRow](tr)
				if !ok {
					t2.AddRow(failedRow(tr.Name), "-", "-", "-")
					continue
				}
				t2.AddRow(row.Name, fmt.Sprintf("%.1f", row.Moved),
					fmt.Sprintf("%.0fB", row.State), row.Worst)
			}
			t2.Note("§4.1: \"any extra reassignments consume resources and can thus prolong recovery\"")
			return []*metrics.Table{t, t2}
		},
	}
}

// --- E8: mode-change breakdown ----------------------------------------------

type e8Case struct {
	name string
	mk   func(s *core.System, at sim.Time) adversary.Attack
}

func e8Cases(p campaign.Params) []e8Case {
	cases := []e8Case{
		{"commission (sink)", func(s *core.System, at sim.Time) adversary.Attack {
			return adversary.CorruptTask(s.Strategy.Plans[""].FirstSinkHost("c2"), "c2", at)
		}},
		{"omission", func(s *core.System, at sim.Time) adversary.Attack {
			return adversary.Omit(s.Strategy.Plans[""].Assign["c1#0"], "c1", at)
		}},
		{"crash", func(s *core.System, at sim.Time) adversary.Attack {
			return adversary.Crash(s.Strategy.Plans[""].Assign["c1#0"], at)
		}},
	}
	if p.Quick {
		cases = cases[:2]
	}
	return cases
}

type e8Row struct {
	Detect     sim.Time
	Distribute sim.Time
	Settle     sim.Time
	Total      sim.Time
	Bound      sim.Time
}

// e8Scenario breaks recovery latency into the paper's pipeline (§4.2–
// §4.4): detection, evidence distribution + activation delay, and the
// mode switch itself.
func e8Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "E8",
		Family: "paper",
		Claim:  "mode changes need no agreement protocol: evidence + deterministic activation converge all correct nodes",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for i, sc := range e8Cases(p) {
				i, sc := i, sc
				specs = append(specs, campaign.TrialSpec{Name: sc.name, Run: func(t *campaign.T) (any, error) {
					s, err := chainSystem(p.Seed+uint64(i), 1, 6, 40)
					if err != nil {
						return nil, err
					}
					faultAt := 5 * s.Cfg.Workload.Period
					sc.mk(s, faultAt).Install(s)
					rep := s.Run()
					detect := sim.Time(0)
					if rep.FirstEvidenceAt != sim.Never {
						detect = rep.FirstEvidenceAt - faultAt
					}
					var lastSwitch sim.Time
					for _, st := range rep.SwitchTimes {
						if st > lastSwitch {
							lastSwitch = st
						}
					}
					distribute := sim.Time(0)
					if lastSwitch > 0 && rep.FirstEvidenceAt != sim.Never {
						distribute = lastSwitch - rep.FirstEvidenceAt
					}
					recovered := faultAt + rep.MaxRecovery()
					settle := sim.Time(0)
					if recovered > lastSwitch && lastSwitch > 0 {
						settle = recovered - lastSwitch
					}
					return e8Row{
						Detect: detect, Distribute: distribute, Settle: settle,
						Total: rep.MaxRecovery(), Bound: rep.RNeeded,
					}, nil
				}})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("E8: recovery latency breakdown by fault type (chain, f=1)",
				"fault", "fault-to-evidence", "evidence-to-last-switch", "switch-to-recovered", "total", "bound R")
			cases := e8Cases(p)
			for i, tr := range trials {
				row, ok := campaign.Value[e8Row](tr)
				if !ok {
					t.AddRow(failedRow(cases[i].name), "-", "-", "-", "-", "-")
					continue
				}
				t.AddRow(cases[i].name, row.Detect, row.Distribute, row.Settle, row.Total, row.Bound)
			}
			t.Note("evidence-to-last-switch includes the deliberate activation delay Delta (all correct nodes switch together)")
			return []*metrics.Table{t}
		},
	}
}
