package adversary

import (
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sim"
)

// Scope is what a catalog behavior takes control of.
type Scope int

const (
	Node    Scope = iota // every output of the node
	Task                 // one logical task the node hosts
	Sink                 // a hosted sink replica: judged at the plant
	Process              // the OS process of a multi-process deployment
)

// Draw names the arrival catalog a behavior belongs to, if any.
type Draw int

const (
	NoDraw   Draw = iota
	Classic       // the C1 colluders and the C8 arrival process
	Extended      // the C10 multifault sweep
)

// Behavior is one row of the fault model: a named adversary behavior and
// how to inject it.
type Behavior struct {
	Name  string
	Scope Scope
	Draw  Draw
	// Convicts reports whether the behavior produces evidence that
	// convicts its victim. skip-actuation does not: the skipped actuation
	// is masked by sink replication (a peer replica of the same sink
	// still actuates), so no watchdog fires and the episode consumes no
	// fault budget.
	Convicts bool
	// Build aims the behavior at node (and task, for Task and Sink
	// scope) from at on. It is nil for Process scope: those faults are
	// driven against a real process by live.RunOrchestrator.
	Build func(node network.NodeID, task flow.TaskID, period, at sim.Time) Attack
}

// Catalog is the whole fault vocabulary, one entry per FAULT_MODEL.md
// row. C1 and C8 draw from the Classic entries and C10 from the Extended
// ones by index, so the order within each Draw is part of every pinned
// table.
var Catalog = []Behavior{
	{"crash", Node, Classic, true, func(n network.NodeID, _ flow.TaskID, _, at sim.Time) Attack { return Crash(n, at) }},
	{"corrupt-all", Node, Classic, true, func(n network.NodeID, _ flow.TaskID, _, at sim.Time) Attack { return CorruptEverything(n, at) }},
	{"corrupt-task", Task, Classic, true, func(n network.NodeID, l flow.TaskID, _, at sim.Time) Attack { return CorruptTask(n, l, at) }},
	{"corrupt-sink", Sink, Extended, true, func(n network.NodeID, l flow.TaskID, _, at sim.Time) Attack { return CorruptTask(n, l, at) }},
	{"omit", Task, Classic, true, func(n network.NodeID, l flow.TaskID, _, at sim.Time) Attack { return Omit(n, l, at) }},
	{"equivocate", Task, Classic, true, func(n network.NodeID, l flow.TaskID, _, at sim.Time) Attack { return Equivocate(n, l, at) }},
	{"timestamp-lie", Task, Classic, true, func(n network.NodeID, l flow.TaskID, _, at sim.Time) Attack {
		return LieAboutSendTime(n, l, 10*sim.Millisecond, at)
	}},
	// delay holds outputs four periods: far past the deadline, so they
	// are late at the transport boundary, not merely jittered.
	{"delay", Task, Extended, true, func(n network.NodeID, l flow.TaskID, p, at sim.Time) Attack { return Delay(n, l, 4*p, at) }},
	{"bogus-flood", Node, NoDraw, true, func(n network.NodeID, _ flow.TaskID, _, at sim.Time) Attack { return FloodBogus(n, 8, at) }},
	{"skip-actuation", Sink, Extended, false, func(n network.NodeID, _ flow.TaskID, _, at sim.Time) Attack { return SkipActuation(n, at) }},
	{"kill", Process, NoDraw, true, nil},
	{"kill-restart", Process, NoDraw, true, nil},
	{"stop", Process, NoDraw, true, nil},
	{"partition", Process, NoDraw, true, nil},
}

// Lookup returns the catalog behavior with the given name.
func Lookup(name string) (Behavior, bool) {
	for _, b := range Catalog {
		if b.Name == name {
			return b, true
		}
	}
	return Behavior{}, false
}

// Names lists, in catalog order, the behaviors keep accepts; a nil keep
// accepts all of them.
func Names(keep func(Behavior) bool) []string {
	var out []string
	for _, b := range Catalog {
		if keep == nil || keep(b) {
			out = append(out, b.Name)
		}
	}
	return out
}
