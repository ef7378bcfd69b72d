package plan

import (
	"slices"

	"btr/internal/network"
	"btr/internal/sched"
)

// Relabel returns the plan's image under a node permutation
// (perm[old] = new). When perm is an automorphism of the deployment
// topology (adjacency- and link-attribute-preserving), the result is a
// valid plan for the permuted fault set with timing behavior identical
// to the original: every execution slot, message window, and finish
// offset is preserved — only the node labels change. This is what makes
// symmetry-keyed plan caching sound (see internal/plan/cache): the plan
// for a fault set is the relabeled plan of its canonical representative.
//
// The receiver is not mutated. The task-indexed slots and the dataflow
// graphs are shared with the original, the node-indexed Slots and the
// message windows are copied; plans are immutable by convention, so
// sharing is safe.
func (p *Plan) Relabel(perm []network.NodeID) *Plan {
	faults := make([]network.NodeID, 0, p.Faults.Len())
	for _, n := range p.Faults.Nodes() {
		faults = append(faults, perm[n])
	}
	asn := make(Assignment, len(p.Assign))
	for id, n := range p.Assign {
		asn[id] = perm[n]
	}
	tab := *p.Table
	tab.Slots = make([][]sched.Slot, len(p.Table.Slots))
	for n, sl := range p.Table.Slots {
		tab.Slots[perm[n]] = sl
	}
	tab.Msgs = slices.Clone(p.Table.Msgs)
	for i := range tab.Msgs {
		w := &tab.Msgs[i]
		w.From, w.To = perm[w.From], perm[w.To]
	}
	return &Plan{
		Faults:    NewFaultSet(faults...),
		Pruned:    p.Pruned,
		Aug:       p.Aug,
		Assign:    asn,
		Table:     &tab,
		ShedSinks: p.ShedSinks,
	}
}
