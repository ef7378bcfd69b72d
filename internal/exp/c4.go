package exp

// C4: incremental plan-engine sweep. The paper's bounded-recovery
// argument requires a valid plan per anticipated fault pattern *before*
// the pattern manifests, so plan synthesis is the scaling bottleneck as
// topologies grow. C4 measures, per topology family, how far symmetry
// canonicalization and delta derivation compress that work: fault sets
// vs. symmetry orbits, syntheses actually run, and whether a warm cache
// resolves the whole lattice synthesis-free. Wall-clock latency is
// machine-dependent and therefore lives in the repository's benchmark
// (plan.engine_cold_ms, plan.engine_warm_ms), not in these
// deterministic tables.

import (
	"fmt"

	"btr/internal/campaign"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plan/cache"
	"btr/internal/sim"
)

type c4Case struct {
	kind string
	n, f int
	mk   func() *network.Topology
}

func c4Cases(p campaign.Params) []c4Case {
	const bw, prop = 20_000_000, 50 * sim.Microsecond
	cases := []c4Case{
		{"full-mesh", 8, 2, func() *network.Topology { return network.FullMesh(8, bw, prop) }},
		{"full-mesh", 12, 2, func() *network.Topology { return network.FullMesh(12, bw, prop) }},
		{"ring", 8, 1, func() *network.Topology { return network.Ring(8, bw, prop) }},
		{"ring", 10, 2, func() *network.Topology { return network.Ring(10, bw, prop) }},
		{"grid-3x3", 9, 2, func() *network.Topology { return network.Grid(3, 3, bw, prop) }},
		{"dual-bus", 8, 2, func() *network.Topology { return network.DualBus(8, bw, prop) }},
		{"star", 8, 1, func() *network.Topology { return network.Star(8, bw, prop) }},
	}
	if p.Quick {
		cases = []c4Case{cases[1], cases[2], cases[5]}
	}
	return cases
}

type c4Row struct {
	Sched   bool
	PlanErr string
	Sets    int
	Orbits  int
	Synth   uint64 // cold syntheses (delta + full)
	Delta   uint64 // of which delta repairs
	Warm    uint64 // syntheses during the warm rebuild (must be 0)
	REngine sim.Time
	RBuild  sim.Time
}

// c4PlanCache sweeps the incremental plan engine across topology
// families: cold synthesis must scale with symmetry orbits (not fault
// sets), a warm cache must resolve the whole lattice synthesis-free, and
// the engine must agree with the from-scratch planner on feasibility.
func c4PlanCache() campaign.Scenario {
	return campaign.Scenario{
		ID:     "C4",
		Family: "campaign",
		Claim:  "plan synthesis scales with symmetry orbits, not fault sets; a warm cache replans synthesis-free",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, c := range c4Cases(p) {
				c := c
				specs = append(specs, campaign.TrialSpec{
					Name: fmt.Sprintf("plancache/%s/n=%d/f=%d", c.kind, c.n, c.f),
					Run: func(t *campaign.T) (any, error) {
						g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
						topo := c.mk()
						opts := plan.DefaultOptions(c.f, 500*sim.Millisecond)
						eng := cache.NewEngine(g, topo, opts, nil)
						s, err := eng.BuildStrategy()
						ref, refErr := t.Strategies.Build(g, topo, opts)
						if (err == nil) != (refErr == nil) {
							return nil, fmt.Errorf("feasibility disagrees: engine=%v build=%v", err, refErr)
						}
						if err != nil {
							return c4Row{Sched: false, PlanErr: campaign.FirstLine(err.Error())}, nil
						}
						cold := eng.Stats()
						if _, err := eng.BuildStrategy(); err != nil {
							return nil, fmt.Errorf("warm rebuild: %v", err)
						}
						warm := eng.Stats()
						sym := eng.Symmetry()
						orbits := map[string]bool{}
						for _, fs := range plan.EnumerateFaultSets(topo.N, c.f) {
							orbits[sym.Canonicalize(fs).Key] = true
						}
						return c4Row{
							Sched:   true,
							Sets:    len(s.Plans),
							Orbits:  len(orbits),
							Synth:   cold.DeltaBuilds + cold.FullBuilds,
							Delta:   cold.DeltaBuilds,
							Warm:    (warm.DeltaBuilds + warm.FullBuilds) - (cold.DeltaBuilds + cold.FullBuilds),
							REngine: s.RNeeded,
							RBuild:  ref.RNeeded,
						}, nil
					},
				})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("C4: incremental plan engine (chain workload, canonicalized plan cache)",
				"topology", "nodes", "f", "fault sets", "orbits", "syntheses", "delta", "synth=orbits", "warm synth-free", "R engine", "R full")
			cases := c4Cases(p)
			for i, tr := range trials {
				c := cases[i]
				row, ok := campaign.Value[c4Row](tr)
				if !ok {
					t.AddRow(failedRow(c.kind), c.n, c.f, "-", "-", "-", "-", "-", "-", "-", "-")
					continue
				}
				if !row.Sched {
					t.AddRow(c.kind, c.n, c.f, "no: "+row.PlanErr, "-", "-", "-", "-", "-", "-", "-")
					continue
				}
				t.AddRow(c.kind, c.n, c.f, row.Sets, row.Orbits,
					row.Synth, row.Delta,
					boolMark(row.Synth == uint64(row.Orbits)),
					boolMark(row.Warm == 0),
					row.REngine, row.RBuild)
			}
			if note := campaign.FailNote(trials); note != "" {
				t.Note("%s", note)
			}
			t.Note("orbits = distinct canonical fault-set keys under topology automorphism; cold synthesis runs once per orbit, warm rebuilds run zero; R engine vs R full may differ in the third digit (different — equally valid — derivation chains)")
			return []*metrics.Table{t}
		},
	}
}
