// Package adversary packages the threat model (§2.1) as reusable attack
// scripts: "there is an adversary who has compromised some subset of the
// nodes and has complete control over them". Each Attack installs a
// Byzantine behavior (or crash) on a node at a chosen time; a Script
// schedules Catalog behaviors by name, among them the paper's worst case
// — a fresh fault every R seconds, stretching the outage toward k·R (§3).
package adversary

import (
	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/runtime"
	"btr/internal/sim"
)

// Attack is one scheduled compromise.
type Attack struct {
	At sim.Time
	// Apply installs the malicious behavior.
	Apply func(rt *runtime.System)
}

// Injector schedules fault injections against a deployment, recording
// their times for recovery attribution, and repairs, which are not
// faults and are not recorded. Both execution modes satisfy it —
// core.System (simulated) and live.Deployment (wall clock) — so the same
// attack scripts run unchanged against either.
type Injector interface {
	InjectAt(t sim.Time, f func(*runtime.System))
	RepairAt(t sim.Time, f func(*runtime.System))
}

// Install registers the attack on a deployment (records the fault time
// for recovery accounting).
func (a Attack) Install(sys Injector) {
	sys.InjectAt(a.At, a.Apply)
}

// Crash fail-stops the node.
func Crash(node network.NodeID, at sim.Time) Attack {
	return Attack{At: at, Apply: func(rt *runtime.System) { rt.Crash(node) }}
}

// behave is the Attack that installs a fresh copy of b on node.
func behave(node network.NodeID, at sim.Time, b runtime.Behavior) Attack {
	return Attack{At: at, Apply: func(rt *runtime.System) {
		b := b
		rt.SetBehavior(node, &b)
	}}
}

// CorruptTask makes the node emit wrong values for every replica of the
// given logical task it hosts (commission fault; provable by
// re-execution, or by checkers when the task is a sink).
func CorruptTask(node network.NodeID, logical flow.TaskID, at sim.Time) Attack {
	return behave(node, at,
		runtime.Behavior{OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
			if rec.Logical == logical {
				rec.Value = append([]byte("corrupt:"), rec.Value...)
			}
			return rec, 0, true
		}})
}

// CorruptEverything corrupts every output of the node.
func CorruptEverything(node network.NodeID, at sim.Time) Attack {
	return behave(node, at,
		runtime.Behavior{OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
			rec.Value = append([]byte("x"), rec.Value...)
			return rec, 0, true
		}})
}

// Equivocate sends conflicting values of the logical task to different
// consumers (split-brain).
func Equivocate(node network.NodeID, logical flow.TaskID, at sim.Time) Attack {
	return behave(node, at,
		runtime.Behavior{OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
			if rec.Logical == logical {
				_, idx := plan.SplitReplica(consumer)
				if idx%2 == 0 {
					rec.Value = append([]byte("fork:"), rec.Value...)
				}
			}
			return rec, 0, true
		}})
}

// Omit silently drops all outputs of the logical task (omission fault;
// convictable only via path accusations).
func Omit(node network.NodeID, logical flow.TaskID, at sim.Time) Attack {
	return behave(node, at,
		runtime.Behavior{OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
			return rec, 0, rec.Logical != logical
		}})
}

// Delay holds the logical task's messages back by d without admitting it
// (claimed send time stays in-window — only watchdogs can catch this).
func Delay(node network.NodeID, logical flow.TaskID, d, at sim.Time) Attack {
	return behave(node, at,
		runtime.Behavior{OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
			if rec.Logical == logical {
				return rec, d, true
			}
			return rec, 0, true
		}})
}

// LieAboutSendTime stamps an out-of-window send offset (timing fault with
// a cryptographic proof).
func LieAboutSendTime(node network.NodeID, logical flow.TaskID, skew, at sim.Time) Attack {
	return behave(node, at,
		runtime.Behavior{OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
			if rec.Logical == logical {
				rec.SendOff += skew
			}
			return rec, 0, true
		}})
}

// FloodBogus sprays invalid evidence at every neighbor each period (the
// §4.3 DoS attack on the evidence channel).
func FloodBogus(node network.NodeID, perPeriod int, at sim.Time) Attack {
	return behave(node, at, runtime.Behavior{BogusEvidencePerPeriod: perPeriod})
}

// SkipActuation suppresses the node's actuations only (its dataflow and
// audit records stay correct) — the residual split-brain actuator fault
// that is visible only through the physics (see README.md, "The recovery
// bound", and the skip-actuation row of FAULT_MODEL.md).
func SkipActuation(node network.NodeID, at sim.Time) Attack {
	return behave(node, at, runtime.Behavior{SkipActuation: true})
}
