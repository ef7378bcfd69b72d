// Watertank: the five-second rule, physically.
//
// A pressure vessel gains 1 bar/s unless its relief valve is commanded
// open; at 10 bar it "explodes" (leaves the safety envelope). That gives
// the control system a damage deadline D = 5s — the paper's five-second
// rule. The BTR deployment runs the sensor->controller->valve loop with
// f=1; an attacker compromises the valve-commanding node and forces the
// valve shut. BTR's recovery bound R (≈0.2s) is far below D, so the
// pressure excursion is a blip; an "eventually-consistent" system would be
// gambling with the vessel.
//
// Run: go run ./examples/watertank
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
	period := 50 * sim.Millisecond
	horizon := uint64(300) // 15 seconds
	tank := plant.NewWaterTank()
	loop := plant.NewLoop(tank, period, horizon)
	workload := flow.ControlLoop(period, flow.CritA)

	sys, err := core.NewSystem(core.Config{
		Seed:     3,
		Workload: workload,
		Topology: network.FullMesh(6, 20_000_000, 50*sim.Microsecond),
		PlanOpts: plan.DefaultOptions(1, sim.Second),
		Compute:  loop.Compute, // controller = the tank's pure control law
		Source:   loop.Source,  // sensors sample the real pressure
		Oracle:   loop.Oracle,  // correctness = control law of actual sample
		Horizon:  horizon,
		OnActuation: func(node network.NodeID, sink flow.TaskID, p uint64, v []byte, at sim.Time) {
			loop.Apply(p, v) // the physical valve takes the first command
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	loop.Install(sys.Kernel)

	fmt.Printf("damage deadline D = %v (pressure headroom / uncontrolled rise)\n", tank.DamageDeadline())
	fmt.Printf("BTR recovery bound R = %v\n\n", sys.Strategy.RNeeded)

	// Compromise the node whose valve command the plant acts on (the
	// replica scheduled to finish first): it will send a corrupted
	// command, which decodes to "valve shut".
	victim := firstActuatingNode(sys, "actuator")
	adversary.CorruptTask(victim, "actuator", 100*period).Install(sys) // t = 5s
	fmt.Printf("attack: node %d forces the valve shut at t=5s\n\n", victim)

	rep := sys.Run()

	fmt.Printf("wrong valve commands reaching the plant: %d period(s)\n", rep.WrongValues)
	fmt.Printf("measured recovery: %v\n", rep.MaxRecovery())
	fmt.Printf("peak pressure: %.2f bar (envelope limit %.1f)\n", tank.Pressure, tank.MaxPressure)
	fmt.Printf("envelope violations: %d\n", loop.Violations)
	if loop.Violations == 0 {
		fmt.Println("\n✓ the five-second rule held: R << D, so the physics absorbed the attack")
	} else {
		fmt.Println("\n✗ the vessel left its envelope — recovery was not fast enough")
	}
}

// firstActuatingNode finds the node hosting the sink replica that the
// plant's first-command-wins semantics listens to.
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
