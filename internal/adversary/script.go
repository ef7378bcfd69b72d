package adversary

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"btr/internal/cliflag"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/runtime"
	"btr/internal/sim"
)

// Fault is one entry of a fault script: a Catalog behavior against one
// victim, injected at At and repaired Heal later.
type Fault struct {
	Behavior string         // a Catalog name
	Node     network.NodeID // the victim; -1 = auto (see Script.Resolve)
	Task     flow.TaskID    // the target of a Task- or Sink-scope behavior
	At       sim.Time       // injection instant
	Heal     sim.Time       // repair delay after At; 0 = never repaired
}

// Script is a fault schedule, the one every executor takes: the kernel
// and in-process live runs install it (Install), the orchestrator
// drives it against real processes, and its text form is
// "kind@at+heal[,...]" (ParseScript, Fault.Format).
type Script []Fault

// Install schedules every entry on inj in script order: the injection,
// recorded as a fault, then the repair at At+Heal when Heal > 0. A
// crash is repaired by restarting the node, every other behavior by
// clearing its behavior hook; either way the node rejoins the dataflow
// only once its conviction expires on the parole clock. period is the
// workload period the catalog scales some behaviors by. Only in-process
// behaviors against resolved victims install: on any other entry Install
// schedules nothing and returns an error.
func (s Script) Install(inj Injector, period sim.Time) error {
	for _, f := range s {
		if b, ok := Lookup(f.Behavior); !ok || b.Build == nil || f.Node < 0 {
			return fmt.Errorf("adversary: cannot install %s on node %d: only an in-process behavior against a resolved victim installs", f.Behavior, f.Node)
		}
	}
	for _, f := range s {
		b, _ := Lookup(f.Behavior)
		b.Build(f.Node, f.Task, period, f.At).Install(inj)
		if f.Heal > 0 {
			inj.RepairAt(f.At+f.Heal, f.repair)
		}
	}
	return nil
}

// repair undoes f on the runtime.
func (f Fault) repair(rt *runtime.System) {
	if f.Behavior == "crash" {
		rt.Restart(f.Node)
	} else {
		rt.SetBehavior(f.Node, nil)
	}
}

// Resolve checks s against an n-node deployment and returns a copy with
// every auto victim (-1) assigned: victim (the strategy victim) first,
// then the lowest untargeted slots. Every entry must name a Catalog
// behavior and hit a distinct node.
func (s Script) Resolve(n int, victim network.NodeID) (Script, error) {
	out := slices.Clone(s)
	used := map[network.NodeID]bool{}
	for _, f := range out {
		if err := cliflag.OneOf("faults", f.Behavior, Names(nil)); err != nil {
			return nil, err
		}
		if f.Node < 0 {
			continue
		}
		if int(f.Node) >= n {
			return nil, fmt.Errorf("adversary: fault script targets node %d of a %d-node deployment", f.Node, n)
		}
		if used[f.Node] {
			return nil, fmt.Errorf("adversary: fault script targets node %d twice", f.Node)
		}
		used[f.Node] = true
	}
	for i := range out {
		if out[i].Node >= 0 {
			continue
		}
		pick := victim
		for slot := network.NodeID(0); used[pick]; slot++ {
			if int(slot) >= n {
				return nil, fmt.Errorf("adversary: fault script has more entries than nodes")
			}
			pick = slot
		}
		out[i].Node = pick
		used[pick] = true
	}
	return out, nil
}

// ParseScript reads the text form "kind@at+heal[,...]": at and heal
// count periods of the given length (at most 2^32-1 each), and a
// left-out "+heal" means 3 periods. Every kind must be one of kinds;
// victims are left auto (-1) and tasks empty. Errors name -faults, the
// command-line flag that takes this form.
func ParseScript(spec string, period sim.Time, kinds []string) (Script, error) {
	periods := func(part, what, s string) (sim.Time, error) {
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("invalid -faults %s in %q: %v", what, part, err)
		}
		return sim.Time(v) * period, nil
	}
	var out Script
	for _, part := range strings.Split(spec, ",") {
		kind, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("invalid -faults entry %q (want kind@at+heal)", part)
		}
		if err := cliflag.OneOf("faults", kind, kinds); err != nil {
			return nil, err
		}
		atStr, healStr, hasHeal := strings.Cut(rest, "+")
		f := Fault{Behavior: kind, Node: -1, Heal: 3 * period}
		var err error
		if f.At, err = periods(part, "injection period", atStr); err != nil {
			return nil, err
		}
		if hasHeal {
			if f.Heal, err = periods(part, "heal delay", healStr); err != nil {
				return nil, err
			}
		}
		out = append(out, f)
	}
	return out, nil
}

// Format renders f in the text form ParseScript reads, "kind@at+heal",
// with at and heal in periods of the given length.
func (f Fault) Format(period sim.Time) string {
	return fmt.Sprintf("%s@%d+%d", f.Behavior, f.At/period, f.Heal/period)
}
