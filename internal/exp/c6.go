package exp

// C6: online membership churn. Every other family runs a frozen
// membership; C6 runs join/retire/replace storms — the two-phase epoch
// switch of internal/member + internal/runtime — across five topology
// families, with fault injections landing between and across epoch
// boundaries. The claim under test is the reconfiguration analogue of
// the five-second rule: measured recovery stays within the *per-epoch*
// provable bound R at every epoch boundary, and churn alone (no fault)
// never produces a single bad output. Tables are deterministic (epoch
// lifecycle times are simulated time), so C6 is covered by the same
// byte-identity pin as the other simulated families.

import (
	"fmt"

	"btr/internal/adversary"
	"btr/internal/campaign"
	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/member"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plan/cache"
	"btr/internal/sim"
)

// c6Case is one churn deployment: a slot universe with spare slots plus
// the genesis membership. The churn script itself is uniform (see
// C6Script): join a spare, retire the convicted victim (or the first
// legally retirable member), replace another member with the second
// spare, then crash a survivor once the fault budget is free again.
type c6Case struct {
	kind    string
	f       int
	mk      func() *network.Topology
	genesis []network.NodeID
}

func c6Cases(p campaign.Params) []c6Case {
	const bw, prop = 20_000_000, 50 * sim.Microsecond
	ids := func(n int) []network.NodeID {
		out := make([]network.NodeID, n)
		for i := range out {
			out[i] = network.NodeID(i)
		}
		return out
	}
	cases := []c6Case{
		{"full-mesh", 1, func() *network.Topology { return network.FullMesh(8, bw, prop) }, ids(6)},
		{"dual-bus", 1, func() *network.Topology { return network.DualBus(9, bw, prop) }, ids(7)},
		{"ring", 1, func() *network.Topology { return network.Ring(9, bw, prop) }, ids(7)},
		{"grid-3x3", 1, func() *network.Topology { return network.Grid(3, 3, bw, prop) }, ids(7)},
		{"line", 1, func() *network.Topology { return network.Line(8, bw, prop) }, ids(6)},
	}
	if p.Quick {
		cases = []c6Case{cases[0], cases[2]}
	}
	return cases
}

// C6Row is one churn trial's measurement (exported for the bundle
// emitter, which records these as the BENCH_campaign.json churn
// section).
type C6Row struct {
	Topology      string
	Slots         int
	GenesisSize   int
	Epochs        int // activated epochs (3 expected)
	Faults        int
	WorstSwitch   sim.Time // worst propose-to-activate latency
	WorstRecovery sim.Time
	WorstBound    sim.Time // worst per-epoch provable R
	Replans       uint64   // epoch-planner syntheses (private cache)
	WithinR       bool     // every recovery within its epoch-aware bound
	CleanChurn    bool     // no bad output outside fault windows
}

// c6RetireTarget picks who a retire/replace event removes: the
// preferred node (the convicted victim — churn as repair) when its
// removal keeps the membership connected, else the first member
// (ascending) whose removal does. Membership arithmetic is static: the
// script is fixed before the run, like a real maintenance plan.
func c6RetireTarget(universe *network.Topology, members []network.NodeID, preferred network.NodeID, avoid map[network.NodeID]bool) network.NodeID {
	ok := func(gone network.NodeID) bool {
		in := map[network.NodeID]bool{}
		for _, m := range members {
			if m != gone {
				in[m] = true
			}
		}
		return universe.DiameterWithin(func(n network.NodeID) bool { return in[n] }) >= 0
	}
	if !avoid[preferred] && contains(members, preferred) && ok(preferred) {
		return preferred
	}
	for _, m := range members {
		if !avoid[m] && m != preferred && ok(m) {
			return m
		}
	}
	return preferred // unreachable for the scripted cases
}

// c6SurvivesLoss reports whether the members stay mutually connected
// after losing one of them.
func c6SurvivesLoss(universe *network.Topology, members []network.NodeID, gone network.NodeID) bool {
	in := map[network.NodeID]bool{}
	for _, m := range members {
		if m != gone {
			in[m] = true
		}
	}
	return universe.DiameterWithin(func(n network.NodeID) bool { return in[n] }) >= 0
}

func contains(members []network.NodeID, x network.NodeID) bool {
	for _, m := range members {
		if m == x {
			return true
		}
	}
	return false
}

func without(members []network.NodeID, x network.NodeID) []network.NodeID {
	var out []network.NodeID
	for _, m := range members {
		if m != x {
			out = append(out, m)
		}
	}
	return out
}

// C6Scenario returns the churn scenario. Exported so the bundle
// emitter can run it standalone.
func C6Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "C6",
		Family: "churn",
		Claim:  "join/retire/replace storms keep recovery within the per-epoch bound R across every epoch boundary",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, c := range c6Cases(p) {
				c := c
				specs = append(specs, campaign.TrialSpec{
					Name: fmt.Sprintf("churn/%s", c.kind),
					Run: func(t *campaign.T) (any, error) {
						return runChurnCase(c, p.Seed, nil)
					},
				})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("C6: membership churn (join/retire/replace + faults, two-phase epoch switch)",
				"topology", "slots", "members", "epochs", "faults", "worst switch", "worst recovery", "worst bound R", "replans", "within R", "clean churn")
			for i, c := range c6Cases(p) {
				row, ok := campaign.Value[C6Row](trials[i])
				if !ok {
					t.AddRow(failedRow(c.kind), "-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
					continue
				}
				t.AddRow(row.Topology, row.Slots, row.GenesisSize, row.Epochs, row.Faults,
					row.WorstSwitch, row.WorstRecovery, row.WorstBound, row.Replans,
					boolMark(row.WithinR && row.Epochs == 3), boolMark(row.CleanChurn))
			}
			if note := campaign.FailNote(trials); note != "" {
				t.Note("%s", note)
			}
			t.Note("script per topology: join a spare slot, corrupt the first-actuating sink host, retire the convicted victim (or the first legally retirable member where removing the victim would disconnect the membership), replace a member with the second spare; where the victim was retired, a survivor additionally crashes in the final epoch")
			t.Note("'within R' holds each measured recovery against the worst provable bound among the epochs its recovery window overlaps; 'clean churn' asserts no bad output outside any fault's recovery window")
			return []*metrics.Table{t}
		},
	}
}

// runChurnCase executes one churn deployment (the C6 trial body). A
// non-nil plan cache is shared into the deployment so the verdict bundle
// can measure cold-vs-warm churn replans.
func runChurnCase(c c6Case, seed uint64, pc *cache.Cache) (C6Row, error) {
	const period = 25 * sim.Millisecond
	const horizon = uint64(40)
	universe := c.mk()
	s, err := core.NewSystem(core.Config{
		Seed:      seed,
		Workload:  flow.Chain(3, period, sim.Millisecond, 64, flow.CritA),
		Topology:  universe,
		PlanOpts:  plan.DefaultOptions(c.f, sim.Second),
		Members:   c.genesis,
		PlanCache: pc,
		Horizon:   horizon,
	})
	if err != nil {
		return C6Row{}, err
	}
	spare1 := network.NodeID(universe.N - 2)
	spare2 := network.NodeID(universe.N - 1)
	// The externally visible victim is the first-
	// actuating sink host of the *epoch-1* plan (the
	// fault lands after the join re-places replicas).
	// Planning is pure, so previewing the epoch through
	// the deployment's own planner costs one warm
	// lookup and matches the runtime's plan exactly.
	elog, err := member.NewLog(universe, member.Genesis(c.genesis))
	if err != nil {
		return C6Row{}, err
	}
	rec1, err := elog.Propose(member.Delta{Join: []network.NodeID{spare1}})
	if err != nil {
		return C6Row{}, err
	}
	wiring1, err := elog.PreviewWiring(rec1)
	if err != nil {
		return C6Row{}, err
	}
	ep1, err := s.MemberPlanner.ForEpoch(rec1, wiring1)
	if err != nil {
		return C6Row{}, err
	}
	victim := ep1.Strategy.Plans[""].FirstSinkHost("c2")

	// The maintenance plan: join, fault, repair-by-
	// retire, replace, then (budget free again) a crash.
	s.Reconfigure(5*period, member.Delta{Join: []network.NodeID{spare1}})
	adversary.CorruptTask(victim, "c2", 9*period).Install(s)
	faults := 1

	afterJoin := append(append([]network.NodeID(nil), c.genesis...), spare1)
	retire1 := c6RetireTarget(universe, afterJoin, victim, nil)
	s.Reconfigure(16*period, member.Delta{Retire: []network.NodeID{retire1}})

	afterRetire := without(afterJoin, retire1)
	retire2 := c6RetireTarget(universe, afterRetire, victim,
		map[network.NodeID]bool{retire1: true})
	s.Reconfigure(23*period, member.Delta{
		Join: []network.NodeID{spare2}, Retire: []network.NodeID{retire2},
	})

	// The second fault only fires when the convicted
	// victim was actually retired — otherwise its
	// conviction still occupies the whole f=1 budget
	// and a further fault is outside the guarantee.
	// Crash a survivor whose loss keeps the remaining
	// members connected — BTR's model (like the static
	// deployments') assumes faults do not partition the
	// wiring; a topology where any crash partitions is a
	// deployment error, not a recovery-bound violation.
	final := append(without(afterRetire, retire2), spare2)
	if retire1 == victim || retire2 == victim {
		for _, m := range final {
			if m == victim || m == spare2 || !c6SurvivesLoss(universe, final, m) {
				continue
			}
			adversary.Crash(m, 30*period).Install(s)
			faults++
			break
		}
	}
	rep := s.Run()

	row := C6Row{
		Topology: c.kind, Slots: universe.N, GenesisSize: len(c.genesis),
		Faults: faults, Replans: rep.EpochReplans,
		WithinR: true, CleanChurn: true,
		WorstBound: rep.MaxEpochR(),
	}
	for _, e := range rep.Epochs {
		if e.ActivatedAt == 0 {
			continue
		}
		row.Epochs++
		if lat := e.SwitchLatency(); lat > row.WorstSwitch {
			row.WorstSwitch = lat
		}
	}
	for _, rec := range rep.Recoveries() {
		d := rec.Duration()
		if d > row.WorstRecovery {
			row.WorstRecovery = d
		}
		if d > rep.RBoundFor(rec.FaultAt, rec.FaultAt+d) {
			row.WithinR = false
		}
	}
	// Bad output is attributable only inside a fault's
	// recovery window; anything else means churn itself
	// corrupted the output.
	for _, iv := range rep.BadIntervals() {
		attributed := false
		for _, rec := range rep.Recoveries() {
			if iv.Start >= rec.FaultAt && iv.End <= rec.FaultAt+rec.Duration() {
				attributed = true
				break
			}
		}
		if !attributed {
			row.CleanChurn = false
		}
	}
	return row, nil
}

// ChurnKinds lists the churn topology families (the full, non-quick
// set), for standalone benchmarking.
func ChurnKinds() []string {
	var out []string
	for _, c := range c6Cases(campaign.Params{}) {
		out = append(out, c.kind)
	}
	return out
}

// RunChurnBench runs one churn topology family standalone (the perf-
// bundle emitter's entry point). pc may be shared across calls to
// measure warm-churn replans.
func RunChurnBench(kind string, seed uint64, pc *cache.Cache) (C6Row, error) {
	for _, c := range c6Cases(campaign.Params{}) {
		if c.kind == kind {
			return runChurnCase(c, seed, pc)
		}
	}
	return C6Row{}, fmt.Errorf("exp: unknown churn topology %q", kind)
}
