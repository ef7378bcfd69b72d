package plan

import (
	"fmt"
	"slices"

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
	slices.Sort(moved)
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

// grouping numbers an augmented graph's replicas by logical task, the
// groups in topological order of their first replica (replicas of one
// logical task share a precedence level). It depends only on the graph,
// so a Synth computes it once per augmented graph.
type grouping struct {
	ids      []flow.TaskID // aug.TopoOrder()
	group    []int         // group[i] is the group of ids[i]
	logicals []flow.TaskID // group -> logical task
	size     []int         // group -> replica count
}

func groupReplicas(aug *flow.Graph) *grouping {
	ids := aug.TopoOrder()
	gr := &grouping{ids: ids, group: make([]int, len(ids))}
	groupOf := make(map[flow.TaskID]int, len(ids))
	for i, id := range ids {
		logical, _ := SplitReplica(id)
		g, ok := groupOf[logical]
		if !ok {
			g = len(gr.logicals)
			groupOf[logical] = g
			gr.logicals = append(gr.logicals, logical)
			gr.size = append(gr.size, 0)
		}
		gr.group[i] = g
		gr.size[g]++
	}
	return gr
}

// assignScratch is assign's per-call bookkeeping. Nothing in it outlives
// the call, so a Synth keeps one and assign resets what it uses.
type assignScratch struct {
	eligible []network.NodeID
	next     []int
	order    []int
	load     []sim.Time
	occupied []bool
}

// zeroed resizes *s to n zero elements, reusing its storage, and
// returns it.
func zeroed[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	} else {
		*s = (*s)[:n]
		clear(*s)
	}
	return *s
}

// assign maps every replica in aug to a non-faulty node; gr is aug's
// grouping. Hard constraint: no two replicas of the same logical task
// share a node. Heuristics: load balance, producer locality, and (in
// minimal-diff mode) stickiness to the parent plan's placement. Only the
// returned Assignment is allocated; sc holds the rest.
func assign(aug *flow.Graph, gr *grouping, topo *network.Topology, o assignOptions, sc *assignScratch) (Assignment, error) {
	eligible := sc.eligible[:0]
	for n := 0; n < topo.N; n++ {
		if !o.faults.Contains(network.NodeID(n)) {
			eligible = append(eligible, network.NodeID(n))
		}
	}
	sc.eligible = eligible
	ids, group, size := gr.ids, gr.group, gr.size
	// Feasibility: the widest replica group must fit on distinct nodes.
	for g, sz := range size {
		if sz > len(eligible) {
			return nil, fmt.Errorf("plan: %d replicas of %q need distinct nodes but only %d are healthy",
				sz, gr.logicals[g], len(eligible))
		}
	}

	// Placement order: group by group, and within a group the replicas
	// whose parent placement is still eligible first: otherwise a
	// displaced replica could steal a sibling's sticky node and trigger a
	// cascade of unnecessary moves. next[g] is group g's next free
	// position in order.
	next := zeroed(&sc.next, len(size))
	for g := 1; g < len(size); g++ {
		next[g] = next[g-1] + size[g-1]
	}
	order := zeroed(&sc.order, len(ids)) // position -> index into ids
	for _, wantSticky := range [2]bool{true, false} {
		for i, id := range ids {
			prev, ok := o.parent[id]
			if (ok && !o.faults.Contains(prev)) == wantSticky {
				order[next[group[i]]] = i
				next[group[i]]++
			}
		}
	}

	load := zeroed(&sc.load, topo.N)
	// occupied[g*topo.N+n]: a replica of group g already sits on node n.
	occupied := zeroed(&sc.occupied, len(size)*topo.N)
	out := make(Assignment, len(ids))

	for _, i := range order {
		id := ids[i]
		task := aug.Tasks[id]
		occ := occupied[group[i]*topo.N:]
		var best network.NodeID = -1
		var bestScore float64
		for _, n := range eligible {
			if occ[n] {
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
		occ[best] = true
		load[best] += task.WCET
	}
	return out, nil
}

// AssignGreedy maps an augmented graph onto healthy nodes with the
// default heuristics (load balance + locality), without a parent plan.
// Baseline protocols reuse it to get comparable placements.
func AssignGreedy(aug *flow.Graph, topo *network.Topology, faults FaultSet) (Assignment, error) {
	return assign(aug, groupReplicas(aug), topo, assignOptions{faults: faults, locality: true}, &assignScratch{})
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
