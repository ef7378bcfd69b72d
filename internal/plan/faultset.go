// Package plan implements BTR's offline planner (§4.1): it augments the
// workload dataflow graph with replicas and checking tasks, maps tasks to
// nodes under hard constraints and heuristics, computes a static schedule
// per mode, and assembles the full strategy — one plan per anticipated
// fault pattern plus the conditions (activation delay, recovery bounds)
// for switching between them.
//
// "Choosing the strategy offline seems safer than dynamic rescheduling at
// runtime because a) a centralized scheduler would be an obvious target
// for the adversary, and because b) to guarantee BTR, we would need a time
// bound on rescheduling, which seems difficult to obtain." (§4.1)
package plan

import (
	"cmp"
	"slices"
	"strconv"

	"btr/internal/network"
)

// FaultSet is a canonical (sorted, deduplicated) set of faulty nodes. The
// set of faulty nodes is append-only at runtime (§4.4), so FaultSets form
// a lattice ordered by inclusion; plans are keyed by FaultSet.
type FaultSet struct {
	nodes []network.NodeID
}

// NewFaultSet builds a canonical fault set from the given nodes.
func NewFaultSet(nodes ...network.NodeID) FaultSet {
	s := append([]network.NodeID(nil), nodes...)
	slices.Sort(s)
	out := s[:0]
	for i, n := range s {
		if i == 0 || n != s[i-1] {
			out = append(out, n)
		}
	}
	return FaultSet{nodes: out}
}

// Key returns the canonical string key ("" for the empty set, "1,4" etc.).
func (f FaultSet) Key() string {
	if len(f.nodes) == 0 {
		return ""
	}
	var buf [64]byte
	b := buf[:0]
	for i, n := range f.nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return string(b)
}

// String renders the set for humans.
func (f FaultSet) String() string {
	if len(f.nodes) == 0 {
		return "{}"
	}
	return "{" + f.Key() + "}"
}

// Len returns the number of faulty nodes.
func (f FaultSet) Len() int { return len(f.nodes) }

// Nodes returns the members (shared slice; do not mutate).
func (f FaultSet) Nodes() []network.NodeID { return f.nodes }

// Contains reports membership.
func (f FaultSet) Contains(n network.NodeID) bool {
	_, ok := slices.BinarySearch(f.nodes, n)
	return ok
}

// With returns f ∪ {n}.
func (f FaultSet) With(n network.NodeID) FaultSet {
	if f.Contains(n) {
		return f
	}
	return NewFaultSet(append(append([]network.NodeID{}, f.nodes...), n)...)
}

// Without returns f \ {n}.
func (f FaultSet) Without(n network.NodeID) FaultSet {
	var out []network.NodeID
	for _, m := range f.nodes {
		if m != n {
			out = append(out, m)
		}
	}
	return FaultSet{nodes: out}
}

// Equal reports set equality.
func (f FaultSet) Equal(g FaultSet) bool {
	if len(f.nodes) != len(g.nodes) {
		return false
	}
	for i := range f.nodes {
		if f.nodes[i] != g.nodes[i] {
			return false
		}
	}
	return true
}

// Predecessors returns all fault sets obtained by removing one member —
// the plans the system may be running when this set's plan activates.
func (f FaultSet) Predecessors() []FaultSet {
	out := make([]FaultSet, 0, len(f.nodes))
	for _, n := range f.nodes {
		out = append(out, f.Without(n))
	}
	return out
}

// EnumerateFaultSets lists every fault set of size <= f over n nodes, in
// BFS order (size 0, then 1, ...), deterministic.
func EnumerateFaultSets(n, f int) []FaultSet {
	nodes := make([]network.NodeID, n)
	for i := range nodes {
		nodes[i] = network.NodeID(i)
	}
	return EnumerateFaultSetsOver(nodes, f)
}

// EnumerateFaultSetsOver lists every fault set of size <= f drawn from
// the given nodes (an arbitrary subset of the slot universe), in the
// same deterministic BFS order as EnumerateFaultSets. Membership epochs
// use it: per-epoch strategies cover fault patterns over the active
// members only.
func EnumerateFaultSetsOver(nodes []network.NodeID, f int) []FaultSet {
	pool := NewFaultSet(nodes...).Nodes() // canonical: sorted, deduplicated
	var out []FaultSet
	var cur []network.NodeID
	var rec func(start, remaining int)
	rec = func(start, remaining int) {
		out = append(out, NewFaultSet(cur...))
		if remaining == 0 {
			return
		}
		for i := start; i < len(pool); i++ {
			cur = append(cur, pool[i])
			rec(i+1, remaining-1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, f)
	// Stable sort by size yields BFS order while keeping the
	// lexicographic order within each size class.
	slices.SortStableFunc(out, func(a, b FaultSet) int { return cmp.Compare(a.Len(), b.Len()) })
	return out
}
