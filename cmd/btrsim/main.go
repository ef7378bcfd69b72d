// Command btrsim runs one BTR scenario end to end: plan, simulate, attack,
// and report output correctness and recovery against the bound. Usage:
//
//	btrsim [-workload chain|avionics] [-nodes 6] [-f 1] [-periods 40]
//	       [-attack none|crash|corrupt|corrupt-sink|omit|timing|equivocate|flood]
//	       [-attack-period 5] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"btr/internal/adversary"
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

func main() {
	workload := flag.String("workload", "chain", "workload: chain|avionics")
	nodes := flag.Int("nodes", 6, "number of nodes (full mesh)")
	f := flag.Int("f", 1, "fault bound")
	periods := flag.Uint64("periods", 40, "simulation horizon in periods")
	attack := flag.String("attack", "corrupt-sink", "attack: none|crash|corrupt|corrupt-sink|omit|timing|equivocate|flood")
	attackPeriod := flag.Uint64("attack-period", 5, "period at which the attack starts")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Parse()

	period := 25 * sim.Millisecond
	var g *flow.Graph
	switch *workload {
	case "chain":
		g = flow.Chain(3, period, sim.Millisecond, 64, flow.CritA)
	case "avionics":
		g = flow.Avionics(period)
	default:
		fmt.Fprintf(os.Stderr, "btrsim: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	sys, err := core.NewSystem(core.Config{
		Seed:     *seed,
		Workload: g,
		Topology: network.FullMesh(*nodes, 20_000_000, 50*sim.Microsecond),
		PlanOpts: plan.DefaultOptions(*f, 500*sim.Millisecond),
		Horizon:  *periods,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "btrsim: %v\n", err)
		os.Exit(1)
	}

	// Attack targets: a mid-pipeline task and the first-actuating sink.
	midTask, sinkTask := pipelineTargets(g)
	base := sys.Strategy.Plans[""]
	at := sim.Time(*attackPeriod) * period
	switch *attack {
	case "none":
	case "crash":
		adversary.Crash(base.Assign[plan.ReplicaID(midTask, 0)], at).Install(sys)
	case "corrupt":
		adversary.CorruptTask(base.Assign[plan.ReplicaID(midTask, 0)], midTask, at).Install(sys)
	case "corrupt-sink":
		adversary.CorruptTask(base.FirstSinkHost(sinkTask), sinkTask, at).Install(sys)
	case "omit":
		adversary.Omit(base.Assign[plan.ReplicaID(midTask, 0)], midTask, at).Install(sys)
	case "timing":
		adversary.LieAboutSendTime(base.Assign[plan.ReplicaID(midTask, 0)], midTask, 10*sim.Millisecond, at).Install(sys)
	case "equivocate":
		adversary.Equivocate(base.Assign[plan.ReplicaID(midTask, 0)], midTask, at).Install(sys)
	case "flood":
		adversary.FloodBogus(0, 8, at).Install(sys)
	default:
		fmt.Fprintf(os.Stderr, "btrsim: unknown attack %q\n", *attack)
		os.Exit(2)
	}

	rep := sys.Run()

	fmt.Printf("workload %q on %d nodes, f=%d, %d periods of %v\n",
		g.Name, *nodes, *f, *periods, period)
	fmt.Printf("strategy: %d plans, recovery bound R = %v\n",
		len(sys.Strategy.Plans), rep.RNeeded)
	fmt.Printf("attack: %s at period %d\n\n", *attack, *attackPeriod)

	fmt.Printf("actuations: %d   wrong values: %d   missed periods: %d\n",
		rep.Actuations, rep.WrongValues, rep.MissedPeriods)
	if n := rep.EvidenceTotal(); n > 0 {
		fmt.Printf("evidence: %d total (", n)
		kinds := make([]evidence.Kind, 0, len(rep.EvidenceByKind))
		for k := range rep.EvidenceByKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for i, k := range kinds {
			if i > 0 {
				fmt.Print(", ")
			}
			fmt.Printf("%s: %d", k, rep.EvidenceByKind[k])
		}
		fmt.Println(")")
	} else {
		fmt.Println("evidence: none")
	}
	fmt.Printf("mode switches: %d\n", len(rep.SwitchTimes))

	// Mixed-criticality semantics (§3): sinks the planner shed — in the
	// base mode (platform too small for the full suite) or in degraded
	// modes (resources reassigned to more critical work) — are allowed to
	// fail permanently. The R bound is claimed for the sinks the current
	// strategy still runs; report per sink and bound-check the surviving
	// set.
	if shed := sys.Strategy.Plans[""].ShedSinks; len(shed) > 0 {
		fmt.Printf("shed in base mode (never ran): %v\n", shed)
	}
	fmt.Println("per-sink outcome:")
	var active []flow.TaskID
	baseShed := map[flow.TaskID]bool{}
	for _, sk := range sys.Strategy.Plans[""].ShedSinks {
		baseShed[sk] = true
	}
	for _, sk := range g.Sinks() {
		if baseShed[sk] {
			continue
		}
		active = append(active, sk)
		bad := rep.BadIntervals(sk)
		if len(bad) == 0 {
			fmt.Printf("  %-12s (crit %v): correct everywhere\n", sk, g.Tasks[sk].Crit)
			continue
		}
		var total sim.Time
		for _, iv := range bad {
			total += iv.Duration()
		}
		fmt.Printf("  %-12s (crit %v): incorrect/shed for %v across %d interval(s)\n",
			sk, g.Tasks[sk].Crit, total, len(bad))
	}
	// Bound check over the most critical class — the outputs BTR promises
	// to keep through every anticipated mode.
	critical := rep.SinksAtOrAbove(flow.CritA)
	var keep []flow.TaskID
	for _, sk := range critical {
		if !baseShed[sk] {
			keep = append(keep, sk)
		}
	}
	maxRec := rep.MaxRecovery(keep...)
	fmt.Printf("\nmax measured recovery (criticality-A sinks): %v (bound %v) — within bound: %v\n",
		maxRec, rep.RNeeded, maxRec <= rep.RNeeded)
	_ = active
}

// pipelineTargets picks a representative intermediate task and sink.
func pipelineTargets(g *flow.Graph) (mid, sink flow.TaskID) {
	sinks := g.Sinks()
	sink = sinks[0]
	for _, sk := range sinks {
		if g.Tasks[sk].Crit < g.Tasks[sink].Crit {
			sink = sk
		}
	}
	// Mid task: a non-source producer feeding toward the sink.
	for _, id := range g.TopoOrder() {
		t := g.Tasks[id]
		if !t.Source && !t.Sink {
			return id, sink
		}
	}
	return sink, sink
}
