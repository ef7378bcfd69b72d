// Pendulum: when the deadline is tight, only a *bounded* recovery will do.
//
// The inverted pendulum is the unstable extreme of the paper's argument:
// its damage deadline is about one second (the water tank gives five, an
// airliner's pitch axis fourteen). BTR's recovery bound of ~0.2s still
// fits underneath — but an eventual-recovery scheme whose tail stretches
// past a second drops the pendulum on the floor. This example shows both:
// the BTR run (attack absorbed), and an open-loop rerun of the same
// outage stretched beyond D (pendulum falls).
//
// Run: go run ./examples/pendulum
package main

import (
	"fmt"
	"log"

	"btr/internal/adversary"
	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plant"
	"btr/internal/sim"
)

func main() {
	period := 20 * sim.Millisecond
	horizon := uint64(400) // 8 seconds
	pend := plant.NewInvertedPendulum()
	loop := plant.NewLoop(pend, period, horizon)
	workload := flow.ControlLoop(period, flow.CritA)

	sys, err := core.NewSystem(core.Config{
		Seed:     9,
		Workload: workload,
		Topology: network.FullMesh(6, 20_000_000, 50*sim.Microsecond),
		PlanOpts: plan.DefaultOptions(1, 500*sim.Millisecond),
		Compute:  loop.Compute,
		Source:   loop.Source,
		Oracle:   loop.Oracle,
		Horizon:  horizon,
		OnActuation: func(node network.NodeID, sink flow.TaskID, p uint64, v []byte, at sim.Time) {
			loop.Apply(p, v)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	loop.Install(sys.Kernel)

	d := pend.DamageDeadline()
	fmt.Printf("pendulum damage deadline D ≈ %v (linearized, conservative)\n", d)
	fmt.Printf("BTR recovery bound R = %v — R < D: %v\n\n", sys.Strategy.RNeeded, sys.Strategy.RNeeded < d)

	victim := firstActuatingNode(sys, "actuator")
	adversary.CorruptTask(victim, "actuator", 100*period).Install(sys) // t = 2s
	fmt.Printf("attack: node %d corrupts the torque command at t=2s\n", victim)

	rep := sys.Run()
	fmt.Printf("measured recovery: %v; wrong commands reaching the motor: %d\n",
		rep.MaxRecovery(), rep.WrongValues)
	fmt.Printf("max |angle| stayed in envelope: violations = %d\n\n", loop.Violations)

	// Counterfactual: the same plant, but the outage lasts 2×D (an
	// eventual-recovery system having a bad day).
	counter := plant.NewInvertedPendulum()
	steps := func(dur sim.Time) int { return int(dur / period) }
	for i := 0; i < steps(2*sim.Second); i++ {
		counter.Step(counter.Control(counter.Sense()), period)
	}
	fell := false
	for i := 0; i < steps(2*d); i++ {
		counter.Step(0, period)
		if !counter.InEnvelope() {
			fell = true
			break
		}
	}
	fmt.Printf("counterfactual outage of 2×D without BTR: pendulum fell = %v\n", fell)
	if loop.Violations == 0 && fell {
		fmt.Println("\n✓ bounded recovery is the difference between a wobble and the floor")
	}
}

// firstActuatingNode finds the node hosting the sink replica the plant
// listens to (earliest scheduled finish).
func firstActuatingNode(sys *core.System, sink flow.TaskID) network.NodeID {
	base := sys.Strategy.Plans[""]
	best := network.NodeID(-1)
	var bestFinish sim.Time
	for _, id := range base.Aug.TaskIDs() {
		logical, _ := plan.SplitReplica(id)
		if logical != sink {
			continue
		}
		fin := base.Table.Finish(id)
		node := base.Assign[id]
		if best == -1 || fin < bestFinish || (fin == bestFinish && node < best) {
			best, bestFinish = node, fin
		}
	}
	return best
}
