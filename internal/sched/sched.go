// Package sched builds static, table-driven schedules — the "detailed
// schedules for different scenarios" every BTR plan needs (§3.1). Given a
// (possibly replica-augmented) dataflow graph, a task→node assignment, and
// a topology, it produces a time-triggered table: per-node execution slots
// and per-edge message transmission windows within one period, with all
// contention (CPU and link) resolved offline. This mirrors the
// time-triggered architectures common in CPS (§5, Mars/TTA).
//
// The model charges cryptographic work to the tasks that perform it
// ("these tasks all consume resources at runtime and must therefore be
// scheduled together with the workload tasks — there are no 'extra
// resources' for BTR", §4.1): each output edge costs one signature, each
// input edge one verification.
package sched

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sim"
)

// Params tunes schedule construction.
type Params struct {
	// Speed is the CPU speed factor: execution time = work / Speed.
	// E3 sweeps this to find the minimum clock frequency per protocol.
	Speed float64
	// SignCost / VerifyCost are per-message crypto charges (at Speed 1).
	SignCost   sim.Time
	VerifyCost sim.Time
	// Class is the traffic class dataflow messages use.
	Class network.Class
	// EvidenceShare mirrors the network config so link windows are
	// computed against the correct foreground capacity.
	EvidenceShare float64
}

// DefaultParams uses nominal speed and the default crypto cost model.
func DefaultParams() Params {
	return Params{
		Speed:         1.0,
		SignCost:      200 * sim.Microsecond,
		VerifyCost:    400 * sim.Microsecond,
		Class:         network.ClassForeground,
		EvidenceShare: 0.2,
	}
}

// Slot is one contiguous execution window for a task on its node.
type Slot struct {
	Task       flow.TaskID
	Start, End sim.Time // offsets within the period
}

// MsgWindow is the planned transmission of one edge instance, one hop at a
// time. Multi-hop routes produce one window per hop; Depart/Arrive are
// offsets within the period of the first (source) end.
type MsgWindow struct {
	Edge     flow.Edge
	From, To network.NodeID // endpoints of the whole route
	Depart   sim.Time       // when the producer hands the message to the NIC
	Arrive   sim.Time       // when the consumer's node receives it
	Hops     int
}

// Table is a complete static schedule for one period. A task's
// input-availability offset is the latest Arrive over its input edges'
// windows in Msgs.
type Table struct {
	Period sim.Time
	// Slots maps each node to its execution slots, sorted by start.
	Slots map[network.NodeID][]Slot
	// Msgs holds one window per edge, keyed by edge identity; an edge
	// between tasks on one node is a local handoff that departs and
	// arrives at the producer's finish.
	Msgs map[flow.Edge]MsgWindow
	// Finish is each task's completion offset.
	Finish map[flow.TaskID]sim.Time
}

// UnschedulableError reports why no feasible table exists.
type UnschedulableError struct{ Reason string }

func (e *UnschedulableError) Error() string { return "sched: unschedulable: " + e.Reason }

// intervalSet tracks reserved [start,end) intervals, sorted, for gap
// finding on CPUs and directed links.
type intervalSet struct {
	iv []Slot // Task field unused for links
}

// earliestGap returns the earliest start >= from such that [start,
// start+dur) does not overlap any reserved interval.
func (s *intervalSet) earliestGap(from, dur sim.Time) sim.Time {
	start := from
	for _, in := range s.iv {
		if in.End <= start {
			continue
		}
		if in.Start >= start+dur {
			break // gap before this interval fits
		}
		start = in.End
	}
	return start
}

// reserve inserts [start, end) keeping the set sorted.
func (s *intervalSet) reserve(task flow.TaskID, start, end sim.Time) {
	i := sort.Search(len(s.iv), func(i int) bool { return s.iv[i].Start >= start })
	s.iv = append(s.iv, Slot{})
	copy(s.iv[i+1:], s.iv[i:])
	s.iv[i] = Slot{Task: task, Start: start, End: end}
}

// dirLink identifies one direction of a link for contention tracking.
type dirLink struct{ from, to network.NodeID }

// setPool hands out one intervalSet per key and keeps the sets, and their
// reserved storage, for the next Build.
type setPool[K comparable] struct {
	idx  map[K]int
	sets []intervalSet
}

// get returns k's set, empty the first time k is asked for after reset.
// The pointer is valid until the next get.
func (p *setPool[K]) get(k K) *intervalSet {
	i, ok := p.idx[k]
	if !ok {
		i = len(p.idx)
		p.idx[k] = i
		if i == len(p.sets) {
			p.sets = append(p.sets, intervalSet{})
		}
		p.sets[i].iv = p.sets[i].iv[:0]
	}
	return &p.sets[i]
}

// buildScratch is Build's per-call bookkeeping. Nothing in it outlives
// the call, so it is pooled and reset with clear instead of rebuilt: in a
// campaign Build runs once per planned fault set.
type buildScratch struct {
	cpus   setPool[network.NodeID]
	links  setPool[dirLink]
	arrive map[flow.Edge]sim.Time // per-edge delivery offset
}

var scratchPool = sync.Pool{New: func() any {
	return &buildScratch{
		cpus:   setPool[network.NodeID]{idx: map[network.NodeID]int{}},
		links:  setPool[dirLink]{idx: map[dirLink]int{}},
		arrive: map[flow.Edge]sim.Time{},
	}
}}

// Build constructs the static table. It returns *UnschedulableError when
// any task cannot complete within the period or a route is missing.
func Build(g *flow.Graph, assign map[flow.TaskID]network.NodeID, topo *network.Topology, p Params) (*Table, error) {
	if p.Speed <= 0 {
		panic("sched: non-positive speed")
	}
	t := &Table{
		Period: g.Period,
		Slots:  make(map[network.NodeID][]Slot, topo.N),
		Msgs:   make(map[flow.Edge]MsgWindow, len(g.Edges)),
		Finish: make(map[flow.TaskID]sim.Time, len(g.Tasks)),
	}
	sc := scratchPool.Get().(*buildScratch)
	defer func() {
		clear(sc.cpus.idx)
		clear(sc.links.idx)
		clear(sc.arrive)
		scratchPool.Put(sc)
	}()
	cpus, links, arrive := &sc.cpus, &sc.links, sc.arrive

	scale := func(d sim.Time) sim.Time {
		return sim.Time(float64(d)/p.Speed + 0.5)
	}

	for _, id := range g.TopoOrder() {
		task := g.Tasks[id]
		node, ok := assign[id]
		if !ok {
			return nil, &UnschedulableError{Reason: fmt.Sprintf("task %q unassigned", id)}
		}
		// Ready when all inputs have arrived.
		var ready sim.Time
		for _, e := range g.Inputs(id) {
			if arrive[e] > ready {
				ready = arrive[e]
			}
		}

		// Total CPU work: task body + crypto for its I/O.
		work := task.WCET +
			p.SignCost*sim.Time(len(g.Outputs(id))) +
			p.VerifyCost*sim.Time(len(g.Inputs(id)))
		exec := scale(work)
		if exec <= 0 {
			exec = 1
		}
		cpu := cpus.get(node)
		start := cpu.earliestGap(ready, exec)
		end := start + exec
		if end > g.Period {
			return nil, &UnschedulableError{Reason: fmt.Sprintf(
				"task %q on node %d finishes at %v > period %v", id, node, end, g.Period)}
		}
		cpu.reserve(id, start, end)
		t.Finish[id] = end

		// Plan each output edge's transmission.
		for _, e := range g.Outputs(id) {
			dst, ok := assign[e.To]
			if !ok {
				return nil, &UnschedulableError{Reason: fmt.Sprintf("task %q unassigned", e.To)}
			}
			if dst == node {
				arrive[e] = end // local handoff
				t.Msgs[e] = MsgWindow{Edge: e, From: node, To: dst, Depart: end, Arrive: end}
				continue
			}
			path, ok := topo.Path(node, dst)
			if !ok {
				return nil, &UnschedulableError{Reason: fmt.Sprintf(
					"no route %d -> %d for edge %s->%s", node, dst, e.From, e.To)}
			}
			at := end // message available after producer finishes
			depart := sim.Time(-1)
			for h := 0; h+1 < len(path); h++ {
				a, b := path[h], path[h+1]
				link, _ := topo.LinkBetween(a, b)
				cap := network.ClassCapacity(link.Bandwidth, p.EvidenceShare, network.ClassForeground)
				tx := network.TxTime(e.Bytes, cap)
				ls := links.get(dirLink{a, b})
				txStart := ls.earliestGap(at, tx)
				ls.reserve(id, txStart, txStart+tx)
				if depart < 0 {
					depart = txStart
				}
				at = txStart + tx + link.Prop
			}
			arrive[e] = at
			t.Msgs[e] = MsgWindow{
				Edge: e, From: node, To: dst,
				Depart: depart, Arrive: at, Hops: len(path) - 1,
			}
			if at > g.Period {
				return nil, &UnschedulableError{Reason: fmt.Sprintf(
					"edge %s->%s arrives at %v > period %v", e.From, e.To, at, g.Period)}
			}
		}
	}
	// The CPU sets are scratch; the table gets its own copy of them, all
	// nodes' slots in one backing array.
	all := make([]Slot, 0, len(g.Tasks))
	for node, i := range cpus.idx {
		from := len(all)
		all = append(all, cpus.sets[i].iv...)
		t.Slots[node] = all[from:len(all):len(all)]
	}
	return t, nil
}

// Violation describes a missed deadline in a candidate table.
type Violation struct {
	Sink     flow.TaskID
	Finish   sim.Time
	Deadline sim.Time
}

func (v Violation) String() string {
	return fmt.Sprintf("sink %q finishes %v after deadline %v", v.Sink, v.Finish, v.Deadline)
}

// CheckDeadlines returns all sink-deadline violations in the table.
func (t *Table) CheckDeadlines(g *flow.Graph) []Violation {
	var vs []Violation
	for _, id := range g.Sinks() {
		if t.Finish[id] > g.Tasks[id].Deadline {
			vs = append(vs, Violation{Sink: id, Finish: t.Finish[id], Deadline: g.Tasks[id].Deadline})
		}
	}
	return vs
}

// NodeUtilization returns busy-time / period for node.
func (t *Table) NodeUtilization(node network.NodeID) float64 {
	var busy sim.Time
	for _, s := range t.Slots[node] {
		busy += s.End - s.Start
	}
	return float64(busy) / float64(t.Period)
}

// MaxUtilization returns the highest per-node utilization and its node.
func (t *Table) MaxUtilization() (network.NodeID, float64) {
	var worst network.NodeID = -1
	var max float64 = -1
	// Deterministic iteration: sort node IDs.
	var nodes []network.NodeID
	for n := range t.Slots {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	for _, n := range nodes {
		if u := t.NodeUtilization(n); u > max {
			max, worst = u, n
		}
	}
	return worst, max
}

// SlotFor returns the execution slot of task id, if scheduled.
func (t *Table) SlotFor(id flow.TaskID) (network.NodeID, Slot, bool) {
	for node, slots := range t.Slots {
		for _, s := range slots {
			if s.Task == id {
				return node, s, true
			}
		}
	}
	return -1, Slot{}, false
}

// Makespan returns the latest finish offset over all tasks.
func (t *Table) Makespan() sim.Time {
	var max sim.Time
	for _, f := range t.Finish {
		if f > max {
			max = f
		}
	}
	return max
}

// VerifySanity checks internal invariants of a built table: no CPU slot
// overlap per node, all finishes within the period, message windows
// consistent with producer finishes. It returns the first violation as an
// error; nil means the table is self-consistent. Tests and the planner's
// paranoid mode call this.
func (t *Table) VerifySanity(g *flow.Graph) error {
	for node, slots := range t.Slots {
		for i := 1; i < len(slots); i++ {
			if slots[i].Start < slots[i-1].End {
				return fmt.Errorf("node %d: slots %q and %q overlap", node, slots[i-1].Task, slots[i].Task)
			}
		}
		for _, s := range slots {
			if s.End > t.Period {
				return fmt.Errorf("node %d: slot %q ends after period", node, s.Task)
			}
		}
	}
	for e, w := range t.Msgs {
		if w.Depart < t.Finish[e.From] {
			return fmt.Errorf("edge %s->%s departs %v before producer finish %v",
				e.From, e.To, w.Depart, t.Finish[e.From])
		}
		if w.Arrive < w.Depart {
			return fmt.Errorf("edge %s->%s arrives before departing", e.From, e.To)
		}
	}
	for _, id := range g.TaskIDs() {
		if _, ok := t.Finish[id]; !ok {
			return fmt.Errorf("task %q missing from table", id)
		}
	}
	return nil
}
