package plan

import (
	"fmt"
	"sort"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sim"
)

// Assignment maps replica task IDs to nodes.
type Assignment map[flow.TaskID]network.NodeID

// Clone copies the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Diff returns the replica tasks present in both assignments whose node
// changed, sorted — the tasks whose state must migrate in a transition.
func (a Assignment) Diff(b Assignment) []flow.TaskID {
	var moved []flow.TaskID
	for id, na := range a {
		if nb, ok := b[id]; ok && na != nb {
			moved = append(moved, id)
		}
	}
	sort.Slice(moved, func(i, j int) bool { return moved[i] < moved[j] })
	return moved
}

// assignOptions tunes the mapper.
type assignOptions struct {
	faults FaultSet
	// parent biases placement toward an existing assignment so that
	// transitions stay cheap ("it should otherwise change as little as
	// possible", §4.1). nil disables (naive replanning ablation).
	parent Assignment
	// locality prefers placing consumers near their producers
	// ("putting replicas close to each other may save bandwidth", §4.1).
	locality bool
}

// assign maps every replica in aug to a non-faulty node. Hard constraint:
// no two replicas of the same logical task share a node. Heuristics: load
// balance, producer locality, and (in minimal-diff mode) stickiness to the
// parent plan's placement.
func assign(aug *flow.Graph, topo *network.Topology, o assignOptions) (Assignment, error) {
	var eligible []network.NodeID
	for n := 0; n < topo.N; n++ {
		if !o.faults.Contains(network.NodeID(n)) {
			eligible = append(eligible, network.NodeID(n))
		}
	}
	// Feasibility: the widest replica group must fit on distinct nodes.
	groupSize := map[flow.TaskID]int{}
	for _, id := range aug.TaskIDs() {
		logical, _ := SplitReplica(id)
		groupSize[logical]++
	}
	for logical, sz := range groupSize {
		if sz > len(eligible) {
			return nil, fmt.Errorf("plan: %d replicas of %q need distinct nodes but only %d are healthy",
				sz, logical, len(eligible))
		}
	}

	load := make(map[network.NodeID]sim.Time, len(eligible))
	used := map[flow.TaskID]map[network.NodeID]bool{} // logical -> occupied nodes
	out := Assignment{}

	// Group replicas by logical task (preserving topological order of the
	// groups; replicas of one logical task share a precedence level).
	// Within a group, replicas whose parent placement is still eligible go
	// first: otherwise a displaced replica could steal a sibling's sticky
	// node and trigger a cascade of unnecessary moves.
	var logicals []flow.TaskID
	groups := map[flow.TaskID][]flow.TaskID{}
	for _, id := range aug.TopoOrder() {
		logical, _ := SplitReplica(id)
		if _, ok := groups[logical]; !ok {
			logicals = append(logicals, logical)
		}
		groups[logical] = append(groups[logical], id)
	}
	var order []flow.TaskID
	for _, logical := range logicals {
		members := groups[logical]
		var sticky, displaced []flow.TaskID
		for _, id := range members {
			if o.parent != nil {
				if prev, ok := o.parent[id]; ok && !o.faults.Contains(prev) {
					sticky = append(sticky, id)
					continue
				}
			}
			displaced = append(displaced, id)
		}
		order = append(order, sticky...)
		order = append(order, displaced...)
	}

	for _, id := range order {
		logical, _ := SplitReplica(id)
		task := aug.Tasks[id]
		occupied := used[logical]
		if occupied == nil {
			occupied = map[network.NodeID]bool{}
			used[logical] = occupied
		}
		var best network.NodeID = -1
		var bestScore float64
		for _, n := range eligible {
			if occupied[n] {
				continue
			}
			// Load term: current committed execution time, in ms.
			score := float64(load[n]) / float64(sim.Millisecond)
			// Locality term: hop distance to each assigned producer —
			// but with a witness-diversity penalty for exact colocation:
			// a consumer on the same node as its producer cannot act as
			// an independent omission witness (its accusations would
			// name its own node). "Putting checking tasks close to
			// replicas" (§4.1) — close, yet distinct.
			if o.locality {
				for _, e := range aug.Inputs(id) {
					if pn, ok := out[e.From]; ok {
						if pn == n {
							score += 0.75
						} else {
							score += 0.25 * float64(topo.Hops(pn, n))
						}
					}
				}
			}
			// Stickiness: keeping the parent's placement makes this
			// replica free to transition.
			if o.parent != nil {
				if prev, ok := o.parent[id]; ok && prev == n {
					score -= 1000
				}
			}
			if best == -1 || score < bestScore {
				best, bestScore = n, score
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("plan: no eligible node for %q", id)
		}
		out[id] = best
		occupied[best] = true
		load[best] += task.WCET
	}
	return out, nil
}

// AssignGreedy maps an augmented graph onto healthy nodes with the
// default heuristics (load balance + locality), without a parent plan.
// Baseline protocols reuse it to get comparable placements.
func AssignGreedy(aug *flow.Graph, topo *network.Topology, faults FaultSet) (Assignment, error) {
	return assign(aug, topo, assignOptions{faults: faults, locality: true})
}

// VerifyAssignment checks the hard constraints: every replica assigned to
// a healthy node, and replica anti-affinity. Used by tests and the
// planner's paranoid mode.
func VerifyAssignment(aug *flow.Graph, a Assignment, faults FaultSet) error {
	seen := map[string]flow.TaskID{}
	for _, id := range aug.TaskIDs() {
		n, ok := a[id]
		if !ok {
			return fmt.Errorf("plan: %q unassigned", id)
		}
		if faults.Contains(n) {
			return fmt.Errorf("plan: %q assigned to faulty node %d", id, n)
		}
		logical, _ := SplitReplica(id)
		key := fmt.Sprintf("%s@%d", logical, n)
		if other, dup := seen[key]; dup {
			return fmt.Errorf("plan: replicas %q and %q share node %d", other, id, n)
		}
		seen[key] = id
	}
	return nil
}
