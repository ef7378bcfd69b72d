package exp

// C5: live wall-clock soak. Every other scenario family measures recovery
// in virtual time on the discrete-event kernel; C5 boots the same runtime
// on the real-time executor (the simulated network.Network on a
// sim.WallScheduler, via internal/live) across the C2 topology families,
// injects catalog faults
// at runtime, and records *measured wall-clock* recovery latencies
// against the provable bound R. Its tables carry real timings and are
// therefore exempt from the byte-identical determinism pin that covers
// the simulated families (the determinism tests filter Family == "live").

import (
	"fmt"
	"sync"

	"btr/internal/adversary"
	"btr/internal/campaign"
	"btr/internal/flow"
	"btr/internal/live"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// liveGate serializes live trials across campaign workers: wall-clock
// deployments must not compete for cores mid-measurement, and their wall
// time does not parallelize anyway.
var liveGate sync.Mutex

// c5Period is deliberately generous (and the watchdog margin with it):
// the live executor runs all nodes on one goroutine over a non-realtime
// kernel, so the jitter budget must cover OS timer overshoot and
// transient scheduling stalls on shared CI hosts. The recovery bound R
// scales with the period; the claim under test is recovery ≤ R, not R's
// absolute size.
const (
	c5Period = 150 * sim.Millisecond
	c5Margin = 50 * sim.Millisecond
)

type c5Case struct {
	kind string
	n    int
	f    int
	mk   func() *network.Topology
}

func c5Cases(p campaign.Params) []c5Case {
	const bw, prop = 20_000_000, 50 * sim.Microsecond
	cases := []c5Case{
		{"full-mesh", 6, 1, func() *network.Topology { return network.FullMesh(6, bw, prop) }},
		{"full-mesh", 8, 2, func() *network.Topology { return network.FullMesh(8, bw, prop) }},
		{"dual-bus", 6, 1, func() *network.Topology { return network.DualBus(6, bw, prop) }},
		{"grid-3x3", 9, 1, func() *network.Topology { return network.Grid(3, 3, bw, prop) }},
		{"ring", 8, 1, func() *network.Topology { return network.Ring(8, bw, prop) }},
	}
	if p.Quick {
		cases = []c5Case{cases[0], cases[2]}
	}
	return cases
}

// c5Reps is the number of soak runs per topology (each one full live
// deployment, alternating fault behaviors).
func c5Reps(p campaign.Params) int {
	reps := 2
	if p.Quick {
		reps = 1
	}
	return reps * p.Trials
}

// C5Row is one live soak run's measurement (exported for the bundle
// emitter, which records these as the BENCH_campaign.json live section).
type C5Row struct {
	Topology string
	Nodes    int
	F        int
	Fault    string
	Recovery sim.Time // measured wall-clock recovery (0 = masked)
	Bound    sim.Time // provable R
	Missed   int
	Wrong    int
	Switches int
}

// C5Scenario returns the live soak scenario. Exported (unlike the
// simulated families) so the bundle emitter can run it standalone.
func C5Scenario() campaign.Scenario {
	horizon := func(p campaign.Params) uint64 {
		if p.Quick {
			return 10
		}
		return 14
	}
	return campaign.Scenario{
		ID:     "C5",
		Family: "live",
		Claim:  "the same runtime recovers within R on the wall clock: live executor + wall-paced network across topology families",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, c := range c5Cases(p) {
				for rep := 0; rep < c5Reps(p); rep++ {
					c, rep := c, rep
					specs = append(specs, campaign.TrialSpec{
						Name: fmt.Sprintf("live/%s/n=%d/rep=%d", c.kind, c.n, rep),
						Run: func(t *campaign.T) (any, error) {
							liveGate.Lock()
							defer liveGate.Unlock()
							opts := plan.DefaultOptions(c.f, 100*c5Period)
							opts.WatchdogMargin = c5Margin
							d, err := live.New(live.Config{
								Seed:     t.TrialSeed(),
								Workload: flow.Chain(3, c5Period, sim.Millisecond, 64, flow.CritA),
								Topology: c.mk(),
								PlanOpts: opts,
								Horizon:  horizon(p),
							})
							if err != nil {
								return nil, err
							}
							victim := live.FirstSinkNode(d)
							fault := "corrupt-all"
							attack := adversary.CorruptEverything(victim, 3*c5Period)
							if rep%2 == 1 {
								fault = "crash"
								attack = adversary.Crash(victim, 3*c5Period)
							}
							attack.Install(d)
							rep := d.Run()
							return C5Row{
								Topology: c.kind, Nodes: c.n, F: c.f, Fault: fault,
								Recovery: rep.MaxRecovery(), Bound: rep.RNeeded,
								Missed: rep.MissedPeriods, Wrong: rep.WrongValues,
								Switches: len(rep.SwitchTimes),
							}, nil
						},
					})
				}
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable(fmt.Sprintf("C5: live wall-clock soak (chain workload, period %v, %d run(s)/topology)", c5Period, c5Reps(p)),
				"topology", "nodes", "f", "runs", "worst recovery", "bound R", "within R")
			for _, c := range c5Cases(p) {
				var worst, bound sim.Time
				n, within := 0, 0
				for _, tr := range trials {
					row, ok := campaign.Value[C5Row](tr)
					if !ok || row.Topology != c.kind || row.Nodes != c.n {
						continue
					}
					n++
					bound = row.Bound
					if row.Recovery > worst {
						worst = row.Recovery
					}
					if row.Recovery <= row.Bound {
						within++
					}
				}
				if n == 0 {
					t.AddRow(failedRow(c.kind), c.n, c.f, 0, "-", "-", "-")
					continue
				}
				t.AddRow(c.kind, c.n, c.f, n, worst, bound, boolMark(within == n))
			}
			if note := campaign.FailNote(trials); note != "" {
				t.Note("%s", note)
			}
			t.Note("wall-clock measurements on a live executor — values vary run to run; the invariant is the 'within R' column")
			return []*metrics.Table{t}
		},
	}
}
