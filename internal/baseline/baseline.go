// Package baseline implements the fault-tolerance alternatives the paper
// positions BTR against (§3.1, §5), on the same simulated substrate and
// workloads, so that cost and recovery comparisons are apples-to-apples:
//
//   - BFTMask — classical Byzantine fault tolerance in the style of
//     PBFT/SMR: 3f+1 replicas of every task, consumers vote on 2f+1
//     matching values. Masks all faults (R = 0) but triples the resource
//     bill; on weak CPS processors this is exactly the cost the paper
//     argues developers are "reluctant to accept" (§2).
//
//   - ZZReactive — ZZ-style reactive execution [71]: f+1 active replicas
//     with comparison-based detection, plus f cold standbys activated on
//     disagreement. Cheap in the normal case; recovery pays the standby
//     activation latency and, unlike BTR, there is no precomputed
//     distributed schedule guaranteeing the post-fault timing.
//
//   - SelfStab — self-stabilization in the style of Dijkstra [28]: no
//     replication; a periodic audit eventually detects and corrects a
//     corrupted component. Convergence is only eventual — the recovery
//     distribution has an unbounded geometric tail, the antithesis of a
//     hard R.
//
//   - Unreplicated — the do-nothing baseline: a fault permanently loses
//     the outputs of everything on the faulty node.
//
// Structural costs (replica counts, schedulability, minimum CPU speed)
// are computed exactly via the shared scheduler; recovery behavior of the
// non-BTR protocols is modeled analytically with explicit parameters
// (documented per model), because the paper's comparison is about the
// shape of these distributions, not protocol micro-detail.
package baseline

import (
	"fmt"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sched"
	"btr/internal/sim"
)

// Protocol enumerates the compared designs.
type Protocol int

const (
	// BTR is bounded-time recovery (this repository's core system).
	BTR Protocol = iota
	// BFTMask is 3f+1 masking replication.
	BFTMask
	// ZZReactive is f+1 active replicas plus reactive standbys.
	ZZReactive
	// SelfStab is unreplicated with periodic audit and eventual repair.
	SelfStab
	// Unreplicated runs the workload bare.
	Unreplicated
)

// Protocols lists all protocols in presentation order.
var Protocols = []Protocol{BTR, BFTMask, ZZReactive, SelfStab, Unreplicated}

func (p Protocol) String() string {
	switch p {
	case BTR:
		return "BTR"
	case BFTMask:
		return "BFT(3f+1)"
	case ZZReactive:
		return "ZZ(f+1)"
	case SelfStab:
		return "SelfStab"
	case Unreplicated:
		return "Unreplicated"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// ReplicaFactor returns the replica counts (non-source, source) protocol p
// uses at fault bound f.
func ReplicaFactor(p Protocol, f int) (nonSource, source int) {
	switch p {
	case BTR:
		return f + 1, 2*f + 1
	case BFTMask:
		return 3*f + 1, 3*f + 1
	case ZZReactive:
		return f + 1, 2*f + 1 // active replicas; standbys consume no CPU
	default:
		return 1, 1
	}
}

// Augment builds protocol p's runtime graph for the workload.
func Augment(p Protocol, g *flow.Graph, f int) *flow.Graph {
	switch p {
	case BTR:
		return plan.Augment(g, plan.DefaultAugment(f))
	case BFTMask:
		return replicate(g, 3*f+1, 3*f+1, false)
	case ZZReactive:
		// Active replicas only; standby activation is modeled in the
		// recovery distribution, not the schedule.
		return replicate(g, f+1, 2*f+1, false)
	case SelfStab:
		return replicate(g, 1, 1, true)
	case Unreplicated:
		return replicate(g, 1, 1, false)
	default:
		panic("baseline: unknown protocol")
	}
}

// replicate builds a plain replica-bundle graph (no checkers, no
// accountability attachments — baselines ship raw values plus a
// signature).
func replicate(g *flow.Graph, nonSrc, src int, withAudit bool) *flow.Graph {
	a := flow.NewGraph(g.Name+"+base", g.Period)
	reps := func(t *flow.Task) int {
		if t.Source {
			return src
		}
		return nonSrc
	}
	for _, id := range g.TaskIDs() {
		t := g.Tasks[id]
		for i := 0; i < reps(t); i++ {
			rt := *t
			rt.ID = plan.ReplicaID(id, i)
			if withAudit && rt.Sink && i == 0 {
				// The audited sink replica feeds its audit task below, so
				// it is no sink of the augmented graph (as in plan.Augment).
				rt.Sink, rt.Deadline = false, 0
			}
			a.AddTask(rt)
		}
	}
	for _, e := range g.Edges {
		prod, cons := g.Tasks[e.From], g.Tasks[e.To]
		bytes := e.Bytes + 128 // record framing + signature, no attachments
		for i := 0; i < reps(prod); i++ {
			for j := 0; j < reps(cons); j++ {
				a.Connect(plan.ReplicaID(e.From, i), plan.ReplicaID(e.To, j), bytes)
			}
		}
	}
	if withAudit {
		// Self-stabilization: a small periodic audit task per sink chain
		// that scans state for corruption.
		for _, s := range g.Sinks() {
			id := flow.TaskID("audit:" + string(s))
			a.AddTask(flow.Task{
				ID: plan.ReplicaID(id, 0), WCET: 300 * sim.Microsecond,
				Crit: g.Tasks[s].Crit, Sink: true, Deadline: g.Period, StateBytes: 64,
			})
			a.Connect(plan.ReplicaID(s, 0), plan.ReplicaID(id, 0), 64)
		}
	}
	return a
}

// Schedulable reports whether protocol p's augmented workload fits the
// topology at the given CPU speed, meeting all actuation deadlines.
func Schedulable(p Protocol, g *flow.Graph, topo *network.Topology, f int, speed float64) bool {
	return fitsAt(p, g, topo, f)(speed)
}

// fitsAt returns Schedulable for every speed, with the speed-independent
// work done once: for BTR one plan.Synth keeps its graphs and buffers
// across the mode loops, for the others the augmented graph and its
// assignment are built once and only the schedule is rebuilt per speed.
func fitsAt(p Protocol, g *flow.Graph, topo *network.Topology, f int) func(speed float64) bool {
	if p == BTR {
		syn := plan.NewSynth(g, topo, plan.DefaultOptions(f, sim.Never))
		return func(speed float64) bool {
			syn.SetSpeed(speed)
			// No shedding allowed in this comparison: full workload or bust.
			_, err := syn.Modes(true)
			return err == nil
		}
	}
	aug := Augment(p, g, f)
	asn, err := plan.AssignGreedy(aug, topo, plan.NewFaultSet())
	if err != nil {
		return func(float64) bool { return false }
	}
	var sc sched.Scratch // one Build at a time: the bisection's steps
	return func(speed float64) bool {
		params := sched.DefaultParams()
		params.Speed = speed
		table, err := sched.Build(aug, asn, topo, params, &sc)
		if err != nil {
			return false
		}
		if len(table.CheckDeadlines(aug)) != 0 {
			return false
		}
		// Actuation deadlines of the base sinks' replicas.
		for _, s := range g.Sinks() {
			dl := g.Tasks[s].Deadline
			for _, id := range aug.TaskIDs() {
				logical, _ := plan.SplitReplica(id)
				if logical == s && table.Finish(id) > dl {
					return false
				}
			}
		}
		return true
	}
}

// MinSpeed binary-searches the minimum CPU speed factor at which the
// protocol schedules the workload (the paper's "impact on clock
// frequency" metric, §2). Returns +Inf-like sentinel 0 if even the max
// speed fails.
func MinSpeed(p Protocol, g *flow.Graph, topo *network.Topology, f int) float64 {
	const lo0, hi0 = 0.01, 16.0
	fits := fitsAt(p, g, topo, f)
	if !fits(hi0) {
		return 0 // unschedulable at any reasonable speed
	}
	lo, hi := lo0, hi0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if fits(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// Utilization returns the peak per-node CPU utilization of protocol p's
// schedule at nominal speed, plus the per-period foreground bytes it puts
// on the network. Zeroes if unschedulable.
func Utilization(p Protocol, g *flow.Graph, topo *network.Topology, f int) (maxUtil float64, netBytes int64) {
	var aug *flow.Graph
	if p == BTR {
		// Only the fault-free plan is read: the mode loop without
		// plan.Build's transition analysis.
		plans, err := plan.NewSynth(g, topo, plan.DefaultOptions(f, sim.Never)).Modes(false)
		if err != nil {
			return 0, 0
		}
		aug = plans[""].Aug
		_, maxUtil = plans[""].Table.MaxUtilization()
	} else {
		aug = Augment(p, g, f)
		asn, err := plan.AssignGreedy(aug, topo, plan.NewFaultSet())
		if err != nil {
			return 0, 0
		}
		table, err := sched.Build(aug, asn, topo, sched.DefaultParams(), nil)
		if err != nil {
			return 0, 0
		}
		_, maxUtil = table.MaxUtilization()
	}
	for _, e := range aug.Edges {
		netBytes += e.Bytes
	}
	return maxUtil, netBytes
}
