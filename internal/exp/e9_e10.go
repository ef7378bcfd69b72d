package exp

import (
	"fmt"

	"btr/internal/adversary"
	"btr/internal/baseline"
	"btr/internal/campaign"
	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plant"
	"btr/internal/sim"
)

// --- E9: the five-second rule -----------------------------------------------

type e9Plant struct {
	name string
	mk   func() plant.Plant
}

func e9Plants(p campaign.Params) []e9Plant {
	plants := []e9Plant{
		{"water tank", func() plant.Plant { return plant.NewWaterTank() }},
		{"inverted pendulum", func() plant.Plant { return plant.NewInvertedPendulum() }},
		{"aircraft pitch", func() plant.Plant { return plant.NewPitchHold() }},
	}
	if p.Quick {
		plants = plants[:1]
	}
	return plants
}

var e9Fractions = []float64{0.5, 0.8, 1.2, 2.0}

type e9aRow struct {
	Deadline sim.Time
	Violated bool
}

type e9bRow struct {
	Deadline   sim.Time
	Bound      sim.Time
	Recovery   sim.Time
	Violations int
}

type e9cRow struct {
	Protocol string
	Samples  int
	Frac     float64
}

// e9Scenario reproduces the paper's namesake argument: physical inertia
// tolerates outages up to a damage deadline D, so BTR with recovery bound
// R < D keeps the plant safe — while eventual-recovery schemes gamble
// with D.
func e9Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "E9",
		Family: "paper",
		Claim:  "physical inertia tolerates ≤D of bad output; BTR guarantees recovery in R < D, eventual recovery does not",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			// Part 1: plant physics — outage sweep vs envelope violation.
			for _, mp := range e9Plants(p) {
				for _, frac := range e9Fractions {
					mp, frac := mp, frac
					specs = append(specs, campaign.TrialSpec{
						Name: fmt.Sprintf("outage/%s/%.1fxD", mp.name, frac),
						Run: func(t *campaign.T) (any, error) {
							d := mp.mk().DamageDeadline()
							outage := sim.Time(float64(d) * frac)
							return e9aRow{Deadline: d, Violated: outageViolates(mp.mk(), outage)}, nil
						},
					})
				}
			}
			// Part 2: BTR closing the loop on the water tank with a
			// corrupted sink: recovery R << D keeps the envelope.
			specs = append(specs, campaign.TrialSpec{Name: "btr-watertank", Run: func(t *campaign.T) (any, error) {
				period := 50 * sim.Millisecond
				horizon := uint64(200) // 10 seconds
				tank := plant.NewWaterTank()
				loop := plant.NewLoop(tank, period, horizon)
				g := flow.ControlLoop(period, flow.CritA)
				sys, err := core.NewSystem(core.Config{
					Seed: p.Seed, Workload: g,
					Topology: network.FullMesh(6, 20_000_000, 50*sim.Microsecond),
					PlanOpts: plan.DefaultOptions(1, sim.Second),
					Compute:  loop.Compute, Source: loop.Source, Oracle: loop.Oracle,
					Horizon: horizon,
					OnActuation: func(node network.NodeID, sink flow.TaskID, pp uint64, value []byte, at sim.Time) {
						loop.Apply(pp, value)
					},
				})
				if err != nil {
					return nil, err
				}
				loop.Install(sys.Kernel)
				// The attacker corrupts the first-actuating sink replica's
				// command; a corrupted command decodes to valve-shut
				// (pressure climbs 1 bar/s).
				victim := sys.Strategy.Plans[""].FirstSinkHost("actuator")
				adversary.CorruptTask(victim, "actuator", 40*period).Install(sys)
				rep := sys.Run()
				return e9bRow{
					Deadline:   tank.DamageDeadline(),
					Bound:      rep.RNeeded,
					Recovery:   rep.MaxRecovery(),
					Violations: loop.Violations,
				}, nil
			}})
			// Part 3: which recovery distributions respect D?
			specs = append(specs, campaign.TrialSpec{Name: "recovery-models", Run: func(t *campaign.T) (any, error) {
				period := 50 * sim.Millisecond
				d := plant.NewWaterTank().DamageDeadline()
				rng := sim.NewRNG(p.Seed)
				nSamples := 2000
				if p.Quick {
					nSamples = 300
				}
				var rows []e9cRow
				for _, pr := range []baseline.Protocol{baseline.BFTMask, baseline.ZZReactive, baseline.SelfStab, baseline.Unreplicated} {
					m := baseline.DefaultRecoveryModel(pr, period)
					over := 0
					for i := 0; i < nSamples; i++ {
						if m.Sample(rng) > d {
							over++
						}
					}
					rows = append(rows, e9cRow{
						Protocol: pr.String(), Samples: nSamples,
						Frac: float64(over) / float64(nSamples),
					})
				}
				return rows, nil
			}})
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t1 := metrics.NewTable("E9a: outage tolerance of the plants (open sweep, no protocol)",
				"plant", "damage deadline D", "outage", "envelope violated")
			plants := e9Plants(p)
			idx := 0
			for _, mp := range plants {
				for _, frac := range e9Fractions {
					row, ok := campaign.Value[e9aRow](trials[idx])
					idx++
					if !ok {
						t1.AddRow(failedRow(mp.name), "-", fmt.Sprintf("%.1f×D", frac), "-")
						continue
					}
					t1.AddRow(mp.name, row.Deadline, fmt.Sprintf("%.1f×D", frac), boolMark(row.Violated))
				}
			}
			t1.Note("outage = actuator frozen at the pre-fault command (crash) or held adversarially at zero control")

			t2 := metrics.NewTable("E9b: BTR on the water tank under a sink-commission attack",
				"metric", "value")
			btr, btrOK := campaign.Value[e9bRow](trials[idx])
			if btrOK {
				t2.AddRow("plant damage deadline D", btr.Deadline)
				t2.AddRow("strategy recovery bound R", btr.Bound)
				t2.AddRow("measured recovery", btr.Recovery)
				t2.AddRow("envelope violations", btr.Violations)
				t2.AddRow("R < D (safe by design)", boolMark(btr.Bound < btr.Deadline))
			} else {
				t2.AddRow(failedRow("btr-watertank"), "-")
			}
			t2.Note("the valve-shut attack is externally visible for ≤ R, far below the 5s damage deadline")
			idx++

			t3 := metrics.NewTable("E9c: P(recovery > D) per protocol (water tank, D = 5s)",
				"protocol", "samples", "P(recovery > D)", "verdict")
			if rows, ok := campaign.Value[[]e9cRow](trials[idx]); ok {
				for _, r := range rows {
					verdict := "safe"
					if r.Frac > 0 {
						verdict = "gambles with damage"
					}
					t3.AddRow(r.Protocol, r.Samples, fmt.Sprintf("%.4f", r.Frac), verdict)
				}
			} else {
				t3.AddRow(failedRow("recovery-models"), "-", "-", "-")
			}
			if btrOK {
				over := 0.0
				if btr.Recovery > btr.Deadline {
					over = 1
				}
				t3.AddRow("BTR", 1, fmt.Sprintf("%.4f", over), "safe (hard bound)")
			} else {
				t3.AddRow(failedRow("BTR"), "-", "-", "-")
			}
			return []*metrics.Table{t1, t2, t3}
		},
	}
}

// outageViolates simulates good control, then an outage of the given
// length with the actuator forced to zero, then good control again.
func outageViolates(p plant.Plant, outage sim.Time) bool {
	c, _ := p.(interface{ Control(float64) float64 })
	period := 20 * sim.Millisecond
	steps := func(d sim.Time) int { return int(d / period) }
	for i := 0; i < steps(5*sim.Second); i++ {
		p.Step(c.Control(p.Sense()), period)
	}
	for i := 0; i < steps(outage); i++ {
		p.Step(0, period)
		if !p.InEnvelope() {
			return true
		}
	}
	for i := 0; i < steps(5*sim.Second); i++ {
		p.Step(c.Control(p.Sense()), period)
		if !p.InEnvelope() {
			return true
		}
	}
	return false
}

// --- E10: baselines ---------------------------------------------------------

type e10BtrRun struct {
	RecoveryMS float64
	Util       float64
	Bound      sim.Time
}

type e10ModelRow struct {
	Cells []string
}

func e10Runs(p campaign.Params) int {
	if p.Quick {
		return 3
	}
	return 8
}

// e10Scenario compares recovery distributions and steady-state cost
// across the fault-tolerance designs (§3.1, §5).
func e10Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "E10",
		Family: "paper",
		Claim:  "BTR occupies the gap between masking (expensive) and eventual recovery (unbounded): cheap normal case, hard bound",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			// BTR: measure real recoveries across seeds (sink commission —
			// the worst externally-visible fault). One system per trial.
			for i := 0; i < e10Runs(p); i++ {
				i := i
				specs = append(specs, campaign.TrialSpec{Name: fmt.Sprintf("btr/run-%d", i), Run: func(t *campaign.T) (any, error) {
					sys, err := chainSystem(p.Seed+uint64(100+i), 1, 8, 40)
					if err != nil {
						return nil, err
					}
					period := sys.Cfg.Workload.Period
					_, util := sys.Strategy.Plans[""].Table.MaxUtilization()
					victim := sys.Strategy.Plans[""].FirstSinkHost("c2")
					adversary.CorruptTask(victim, "c2", 5*period).Install(sys)
					rep := sys.Run()
					return e10BtrRun{
						RecoveryMS: rep.MaxRecovery().Millis(),
						Util:       util,
						Bound:      sys.Strategy.RNeeded,
					}, nil
				}})
			}
			// Analytic models share one RNG stream, so they stay a single
			// trial (splitting them would change the sampled values).
			specs = append(specs, campaign.TrialSpec{Name: "models", Run: func(t *campaign.T) (any, error) {
				g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
				topo := network.FullMesh(8, 20_000_000, 50*sim.Microsecond)
				period := g.Period
				rng := sim.NewRNG(p.Seed ^ 0xe10)
				nSamples := 5000
				if p.Quick {
					nSamples = 500
				}
				var rows []e10ModelRow
				for _, pr := range []baseline.Protocol{baseline.BFTMask, baseline.ZZReactive, baseline.SelfStab, baseline.Unreplicated} {
					m := baseline.DefaultRecoveryModel(pr, period)
					s := metrics.NewSeries(pr.String())
					never := false
					for i := 0; i < nSamples; i++ {
						v := m.Sample(rng)
						if v == sim.Never {
							never = true
							break
						}
						s.AddTime(v)
					}
					util, _ := baseline.Utilization(pr, g, topo, 1)
					guarantee := map[baseline.Protocol]string{
						baseline.BFTMask:      "masks (needs 3f+1)",
						baseline.ZZReactive:   "detection, no timing bound",
						baseline.SelfStab:     "eventual only (unbounded tail)",
						baseline.Unreplicated: "none",
					}[pr]
					if never {
						rows = append(rows, e10ModelRow{Cells: []string{
							pr.String() + " (model)", "never", "never", "never",
							fmt.Sprintf("%.3f", util), guarantee}})
						continue
					}
					rows = append(rows, e10ModelRow{Cells: []string{
						pr.String() + " (model)",
						fmt.Sprintf("%.1fms", s.Percentile(50)),
						fmt.Sprintf("%.1fms", s.Percentile(99)),
						fmt.Sprintf("%.1fms", s.Max()),
						fmt.Sprintf("%.3f", util), guarantee}})
				}
				return rows, nil
			}})
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("E10: recovery distribution and steady-state cost (chain, f=1)",
				"protocol", "recovery p50", "recovery p99", "recovery max", "peak util", "guarantee")
			runs := e10Runs(p)
			// Fold per-trial samples in trial-index order (the
			// deterministic shard reduction), keeping failures visible.
			btrSamples := metrics.NewSeries("btr")
			var btrUtil float64
			var rBound sim.Time
			failed := 0
			for _, tr := range trials[:runs] {
				run, ok := campaign.Value[e10BtrRun](tr)
				if !ok {
					failed++
					continue
				}
				btrSamples.Add(run.RecoveryMS)
				btrUtil, rBound = run.Util, run.Bound
			}
			if btrSamples.N() == 0 {
				t.AddRow(failedRow("BTR (measured)"), "-", "-", "-", "-", "-")
			} else {
				label := "BTR (measured)"
				if failed > 0 {
					label = fmt.Sprintf("BTR (measured, %d/%d trials failed)", failed, runs)
				}
				t.AddRow(label,
					fmt.Sprintf("%.1fms", btrSamples.Percentile(50)),
					fmt.Sprintf("%.1fms", btrSamples.Percentile(99)),
					fmt.Sprintf("%.1fms", btrSamples.Max()),
					fmt.Sprintf("%.3f", btrUtil),
					fmt.Sprintf("hard bound %v", rBound))
			}
			if rows, ok := campaign.Value[[]e10ModelRow](trials[runs]); ok {
				for _, r := range rows {
					cells := make([]any, len(r.Cells))
					for i, c := range r.Cells {
						cells[i] = c
					}
					t.AddRow(cells...)
				}
			} else {
				t.AddRow(failedRow("models"), "-", "-", "-", "-", "-")
			}
			t.Note("non-BTR recovery distributions are analytic models with documented parameters (internal/baseline); shapes, not absolutes")
			return []*metrics.Table{t}
		},
	}
}
