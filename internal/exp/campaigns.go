package exp

// The C-family scenarios are campaign-only sweeps that go beyond the
// paper's E1–E10 reproductions: Monte Carlo colluding-adversary sweeps
// over the internal/adversary behavior catalog (C1), topology-family
// scaling (C2), and clock-skew sweeps over internal/clock ensembles (C3).
// They exist to widen the explored failure space — the credibility of a
// bounded-recovery claim scales with the number of fault scenarios swept,
// not with any single trace.

import (
	"fmt"
	"strings"

	"btr/internal/adversary"
	"btr/internal/campaign"
	"btr/internal/clock"
	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// --- C1: colluding-adversary Monte Carlo sweep ------------------------------

// c1Behavior is one entry of the attack catalog the colluders draw from.
type c1Behavior struct {
	name string
	mk   func(node network.NodeID, logical flow.TaskID, at sim.Time) adversary.Attack
}

func c1Catalog() []c1Behavior {
	return []c1Behavior{
		{"crash", func(n network.NodeID, l flow.TaskID, at sim.Time) adversary.Attack {
			return adversary.Crash(n, at)
		}},
		{"corrupt-all", func(n network.NodeID, l flow.TaskID, at sim.Time) adversary.Attack {
			return adversary.CorruptEverything(n, at)
		}},
		{"corrupt-task", func(n network.NodeID, l flow.TaskID, at sim.Time) adversary.Attack {
			return adversary.CorruptTask(n, l, at)
		}},
		{"omit", func(n network.NodeID, l flow.TaskID, at sim.Time) adversary.Attack {
			return adversary.Omit(n, l, at)
		}},
		{"equivocate", func(n network.NodeID, l flow.TaskID, at sim.Time) adversary.Attack {
			return adversary.Equivocate(n, l, at)
		}},
		{"timestamp-lie", func(n network.NodeID, l flow.TaskID, at sim.Time) adversary.Attack {
			return adversary.LieAboutSendTime(n, l, 10*sim.Millisecond, at)
		}},
	}
}

type c1Row struct {
	K        int
	Attacks  string
	TotalBad sim.Time
	Recovery sim.Time
	Bound    sim.Time
}

func c1Reps(p campaign.Params) int {
	reps := 4
	if p.Quick {
		reps = 2
	}
	return reps * p.Trials
}

// c1Colluding sweeps random colluding-adversary schedules: k ≤ f
// compromised nodes, each running a behavior drawn from the catalog,
// staggered R apart (the §3 worst case generalized from one behavior to
// the full behavior space). The claim under test: total incorrect-output
// time stays within k·R no matter which behaviors collude.
func c1Colluding() campaign.Scenario {
	const f, nodes = 2, 10
	return campaign.Scenario{
		ID:     "C1",
		Family: "campaign",
		Claim:  "any k≤f colluding behaviors from the catalog keep total bad output within k·R (Monte Carlo)",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for k := 1; k <= f; k++ {
				for rep := 0; rep < c1Reps(p); rep++ {
					k := k
					specs = append(specs, campaign.TrialSpec{
						Name: fmt.Sprintf("collude/k=%d/rep=%d", k, rep),
						Run: func(t *campaign.T) (any, error) {
							s, err := chainSystem(t.TrialSeed(), f, nodes, uint64(30+25*k))
							if err != nil {
								return nil, err
							}
							rng := t.RNG()
							period := s.Cfg.Workload.Period
							gap := s.Strategy.RNeeded + 2*period
							cat := c1Catalog()
							victims := pickColluders(s, rng, k)
							var names []string
							for i, v := range victims {
								b := cat[rng.Intn(len(cat))]
								// Attack a logical task the victim actually
								// hosts, so the behavior can manifest.
								hosted := v.logicals
								l := hosted[rng.Intn(len(hosted))]
								at := 5*period + sim.Time(i)*gap
								b.mk(v.node, l, at).Install(s)
								names = append(names, fmt.Sprintf("%s(%d,%s)", b.name, v.node, l))
							}
							rep := s.Run()
							return c1Row{
								K:        k,
								Attacks:  strings.Join(names, "+"),
								TotalBad: rep.TotalBadTime(),
								Recovery: rep.MaxRecovery(),
								Bound:    sim.Time(k) * rep.RNeeded,
							}, nil
						},
					})
				}
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable(fmt.Sprintf("C1: colluding-adversary sweep (chain, f=%d, %d nodes, %d random schedules/k)", f, nodes, c1Reps(p)),
				"k (colluders)", "trials", "masked", "worst total bad", "mean total bad", "bound k·R", "all within k·R")
			for k := 1; k <= f; k++ {
				bad := metrics.NewSeries("bad")
				var bound sim.Time
				n, within, masked := 0, 0, 0
				for _, tr := range trials {
					row, ok := campaign.Value[c1Row](tr)
					if !ok || row.K != k {
						continue
					}
					n++
					bad.AddTime(row.TotalBad)
					bound = row.Bound
					if row.TotalBad <= row.Bound {
						within++
					}
					if row.TotalBad == 0 {
						masked++
					}
				}
				t.AddRow(k, n, masked,
					fmt.Sprintf("%.1fms", bad.Max()),
					fmt.Sprintf("%.1fms", bad.Mean()),
					bound, boolMark(within == n && n > 0))
			}
			if note := campaign.FailNote(trials); note != "" {
				t.Note("%s", note)
			}
			t.Note("first colluder is the first-actuating sink host (the externally visible victim); behaviors drawn uniformly from {crash, corrupt-all, corrupt-task, omit, equivocate, timestamp-lie}, staggered R apart")
			return []*metrics.Table{t}
		},
	}
}

// colluder is one victim node together with the logical tasks it hosts in
// the base plan.
type colluder struct {
	node     network.NodeID
	logicals []flow.TaskID
}

// pickColluders draws k distinct victim nodes from the replica-hosting
// nodes of the base plan, using the trial's private generator. Each comes
// with its hosted logical tasks so attacks can target work the node
// actually does.
func pickColluders(s *core.System, rng *sim.RNG, k int) []colluder {
	base := s.Strategy.Plans[""]
	byNode := map[network.NodeID][]flow.TaskID{}
	var hosts []network.NodeID
	for _, id := range base.Aug.TaskIDs() { // deterministic order
		n := base.Assign[id]
		logical, _ := plan.SplitReplica(id)
		if _, ok := byNode[n]; !ok {
			hosts = append(hosts, n)
		}
		dup := false
		for _, l := range byNode[n] {
			if l == logical {
				dup = true
			}
		}
		if !dup {
			byNode[n] = append(byNode[n], logical)
		}
	}
	if k > len(hosts) {
		k = len(hosts)
	}
	// The first colluder is always the first-actuating sink replica's node
	// — the only single victim whose corruption is externally visible (the
	// E4 worst case); the rest are drawn uniformly.
	visible := s.Strategy.Plans[""].FirstSinkHost("c2")
	out := []colluder{{node: visible, logicals: byNode[visible]}}
	for _, i := range rng.Perm(len(hosts)) {
		if len(out) >= k {
			break
		}
		if hosts[i] != visible {
			out = append(out, colluder{node: hosts[i], logicals: byNode[hosts[i]]})
		}
	}
	return out
}

// --- C2: topology-family scaling sweep --------------------------------------

type c2Case struct {
	kind string
	n    int
	f    int
	mk   func(n int) *network.Topology
}

func c2Cases(p campaign.Params) []c2Case {
	mesh := func(n int) *network.Topology { return network.FullMesh(n, 20_000_000, 50*sim.Microsecond) }
	dual := func(n int) *network.Topology { return network.DualBus(n, 20_000_000, 50*sim.Microsecond) }
	grid := func(n int) *network.Topology { return network.Grid(3, 3, 20_000_000, 50*sim.Microsecond) }
	ring := func(n int) *network.Topology { return network.Ring(n, 20_000_000, 50*sim.Microsecond) }
	cases := []c2Case{
		{"full-mesh", 6, 1, mesh},
		{"full-mesh", 8, 2, mesh},
		{"full-mesh", 10, 2, mesh},
		{"full-mesh", 12, 2, mesh},
		{"dual-bus", 6, 1, dual},
		{"dual-bus", 8, 1, dual},
		{"grid-3x3", 9, 1, grid},
		{"ring", 8, 1, ring},
	}
	if p.Quick {
		cases = []c2Case{cases[0], cases[1], cases[4], cases[7]}
	}
	return cases
}

type c2Row struct {
	Sched    bool
	PlanErr  string
	Plans    int
	R        sim.Time
	Recovery sim.Time
}

// c2Topology sweeps the deployment topology family and size: can the
// planner still find an R-bounded strategy, and does the runtime still
// recover within it, when the full mesh is replaced by the sparse
// interconnects real CPS platforms use (dual buses, grids, rings)?
func c2Topology() campaign.Scenario {
	return campaign.Scenario{
		ID:     "C2",
		Family: "campaign",
		Claim:  "the recovery bound survives topology scaling: sparse interconnects either plan within R or fail loudly at plan time",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			horizon := uint64(30)
			if p.Quick {
				horizon = 20
			}
			var specs []campaign.TrialSpec
			for _, c := range c2Cases(p) {
				c := c
				specs = append(specs, campaign.TrialSpec{
					Name: fmt.Sprintf("topo/%s/n=%d", c.kind, c.n),
					Run: func(t *campaign.T) (any, error) {
						sys, err := core.NewSystem(core.Config{
							Seed:     p.Seed,
							Workload: flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
							Topology: c.mk(c.n),
							PlanOpts: plan.DefaultOptions(c.f, 500*sim.Millisecond),
							Horizon:  horizon,
						})
						if err != nil {
							// Unschedulable is a sweep result, not a failure.
							return c2Row{Sched: false, PlanErr: campaign.FirstLine(err.Error())}, nil
						}
						period := sys.Cfg.Workload.Period
						victim := sys.Strategy.Plans[""].FirstSinkHost("c2")
						adversary.CorruptTask(victim, "c2", 5*period).Install(sys)
						rep := sys.Run()
						return c2Row{
							Sched:    true,
							Plans:    len(sys.Strategy.Plans),
							R:        rep.RNeeded,
							Recovery: rep.MaxRecovery(),
						}, nil
					},
				})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("C2: topology scaling (chain workload, sink commission fault)",
				"topology", "nodes", "f", "schedulable", "plans", "bound R", "measured recovery", "within R")
			cases := c2Cases(p)
			for i, tr := range trials {
				c := cases[i]
				row, ok := campaign.Value[c2Row](tr)
				if !ok {
					t.AddRow(failedRow(c.kind), c.n, c.f, "-", "-", "-", "-", "-")
					continue
				}
				if !row.Sched {
					t.AddRow(c.kind, c.n, c.f, "no: "+row.PlanErr, "-", "-", "-", "-")
					continue
				}
				t.AddRow(c.kind, c.n, c.f, "yes", row.Plans, row.R, row.Recovery,
					boolMark(row.Recovery <= row.R))
			}
			t.Note("an unschedulable topology is the correct answer when no placement meets R — the planner must refuse, not degrade silently")
			return []*metrics.Table{t}
		},
	}
}

// --- C3: clock-skew sweep ---------------------------------------------------

type c3Point struct {
	drift    float64 // max per-clock drift (fraction)
	interval sim.Time
}

func c3Points(p campaign.Params) []c3Point {
	pts := []c3Point{
		{10e-6, 100 * sim.Millisecond},
		{50e-6, 100 * sim.Millisecond},
		{200e-6, 100 * sim.Millisecond},
		{50e-6, 500 * sim.Millisecond},
		{200e-6, 500 * sim.Millisecond},
		{50e-6, sim.Second},
	}
	if p.Quick {
		pts = []c3Point{pts[1], pts[4]}
	}
	return pts
}

type c3Row struct {
	WorstSkew sim.Time
	Bound     sim.Time
	Margin    sim.Time
}

// c3ClockSkew sweeps oscillator drift and sync interval for a Welch–Lynch
// ensemble with f Byzantine clocks lying adversarially, checking the
// measured steady-state skew against the analytic bound the planner's
// watchdog margin is derived from. Each sweep point runs p.Trials
// independent random ensembles.
func c3ClockSkew() campaign.Scenario {
	const n, f = 10, 2
	rounds := 40
	return campaign.Scenario{
		ID:     "C3",
		Family: "campaign",
		Claim:  "measured ensemble skew under Byzantine clocks stays within the analytic bound the watchdog margin assumes",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, pt := range c3Points(p) {
				for rep := 0; rep < p.Trials; rep++ {
					pt := pt
					specs = append(specs, campaign.TrialSpec{
						Name: fmt.Sprintf("skew/%.0fppm/%v/rep=%d", pt.drift*1e6, pt.interval, rep),
						Run: func(t *campaign.T) (any, error) {
							rng := t.RNG()
							e := clock.NewEnsemble(rng, n, f, pt.drift, 5*sim.Millisecond)
							// f Byzantine clocks lie with random extreme
							// offsets, drawn from the trial's private stream.
							for _, i := range rng.Perm(n)[:f] {
								off := rng.Duration(2*sim.Minute) - sim.Minute
								e.Byzantine[i] = func(now sim.Time) sim.Time { return now + off }
							}
							e.Run(0, pt.interval, 5) // settle from initial offsets
							now := 5 * pt.interval
							var worst sim.Time
							for r := 0; r < rounds; r++ {
								now += pt.interval
								if s := e.Skew(now); s > worst {
									worst = s
								}
								e.SyncRound(now)
							}
							return c3Row{
								WorstSkew: worst,
								Bound:     clock.SkewBound(pt.drift, pt.interval),
								Margin:    clock.WatchdogMarginFor(pt.drift, pt.interval, sim.Millisecond),
							}, nil
						},
					})
				}
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable(fmt.Sprintf("C3: clock-skew sweep (Welch–Lynch, n=%d, f=%d Byzantine, %d rounds, %d ensemble(s)/point)", n, f, rounds, p.Trials),
				"max drift", "sync interval", "worst skew", "bound", "watchdog margin", "within bound")
			pts := c3Points(p)
			for i, pt := range pts {
				worst := metrics.NewSeries("skew")
				var bound, margin sim.Time
				nOK, within := 0, 0
				for rep := 0; rep < p.Trials; rep++ {
					row, ok := campaign.Value[c3Row](trials[i*p.Trials+rep])
					if !ok {
						continue
					}
					nOK++
					worst.AddTime(row.WorstSkew)
					bound, margin = row.Bound, row.Margin
					if row.WorstSkew <= row.Bound {
						within++
					}
				}
				if nOK == 0 {
					t.AddRow(failedRow(fmt.Sprintf("%.0fppm", pt.drift*1e6)), pt.interval, "-", "-", "-", "-")
					continue
				}
				t.AddRow(fmt.Sprintf("%.0fppm", pt.drift*1e6), pt.interval,
					sim.FromSeconds(worst.Max()/1000), bound, margin,
					boolMark(within == nOK))
			}
			t.Note("the planner's WatchdogMargin must dominate the bound column; 2×bound + 1ms jitter shown for comparison")
			return []*metrics.Table{t}
		},
	}
}
