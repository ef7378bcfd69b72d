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
	"sort"

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

// Table is a complete static schedule for one period, on dense storage:
// node, edge and task positions index slices. A task's input-availability
// offset is the latest Arrive over its input edges' windows in Msgs.
type Table struct {
	Period sim.Time
	// Slots[n] is node n's execution slots, sorted by start, and empty
	// for a node that runs nothing. All nodes' slots share one backing
	// array.
	Slots [][]Slot
	// Msgs[k] is the window of the graph's Edges[k]; an edge between
	// tasks on one node is a local handoff that departs and arrives at
	// the producer's finish.
	Msgs []MsgWindow
	// tasks[g.Index(id)] is task id's slot: SlotFor and Finish read it.
	g     *flow.Graph
	tasks []Slot
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

// Scratch is Build's per-call bookkeeping. Nothing in it outlives the
// call, so a caller that builds many tables (in a campaign, one per
// planned fault set) keeps one Scratch for all of them. A Scratch serves
// one Build at a time; its zero value is ready to use.
type Scratch struct {
	// sets holds each node's CPU set, then each directed link's set at
	// N + from*N + to, carved from slots at the size fill counts.
	sets  []intervalSet
	fill  []int
	slots []Slot
	ready []sim.Time // by task Index: its latest input arrival
}

// size empties sc for a build and carves each set, capacity-capped, from
// one array at the count of intervals the build reserves in it.
func (sc *Scratch) size(g *flow.Graph, order []flow.TaskID, assign map[flow.TaskID]network.NodeID, topo *network.Topology) {
	n := topo.N + topo.N*topo.N
	if cap(sc.sets) < n {
		sc.sets, sc.fill = make([]intervalSet, n), make([]int, n)
	}
	sc.sets, sc.fill = sc.sets[:n], sc.fill[:n]
	clear(sc.fill)
	total := 0
	for _, id := range order {
		node := assign[id] // an unassigned task fails the build: any count does
		sc.fill[node]++
		total++
		for _, k := range g.OutputsAt(g.Index(id)) {
			path, _ := topo.Path(node, assign[g.Edges[k].To])
			for h := 0; h+1 < len(path); h++ {
				sc.fill[topo.N+int(path[h])*topo.N+int(path[h+1])]++
				total++
			}
		}
	}
	if cap(sc.slots) < total {
		sc.slots = make([]Slot, total)
	}
	off := 0
	for i, c := range sc.fill {
		sc.sets[i].iv = sc.slots[off : off : off+c]
		off += c
	}
}

// Build constructs the static table, using sc as its scratch (nil: a
// fresh one). It returns *UnschedulableError when any task cannot
// complete within the period or a route is missing.
func Build(g *flow.Graph, assign map[flow.TaskID]network.NodeID, topo *network.Topology, p Params, sc *Scratch) (*Table, error) {
	if p.Speed <= 0 {
		panic("sched: non-positive speed")
	}
	order := g.TopoOrder()
	// One array holds the slot of each task by Index, then all nodes'
	// slots in node order.
	n := len(order)
	slots := make([]Slot, 2*n)
	t := &Table{
		Period: g.Period,
		Slots:  make([][]Slot, topo.N),
		Msgs:   make([]MsgWindow, len(g.Edges)),
		g:      g,
		tasks:  slots[:n:n],
	}
	if sc == nil {
		sc = new(Scratch)
	}
	sc.size(g, order, assign, topo)
	if cap(sc.ready) < len(order) {
		sc.ready = make([]sim.Time, len(order))
	}
	ready := sc.ready[:len(order)]
	clear(ready)

	scale := func(d sim.Time) sim.Time {
		return sim.Time(float64(d)/p.Speed + 0.5)
	}

	for _, id := range order {
		i, task := g.Index(id), g.Tasks[id]
		node, ok := assign[id]
		if !ok {
			return nil, &UnschedulableError{Reason: fmt.Sprintf("task %q unassigned", id)}
		}
		// Total CPU work: task body + crypto for its I/O.
		work := task.WCET +
			p.SignCost*sim.Time(len(g.Outputs(id))) +
			p.VerifyCost*sim.Time(len(g.Inputs(id)))
		exec := scale(work)
		if exec <= 0 {
			exec = 1
		}
		// Ready when all inputs have arrived: every producer came earlier
		// in order and raised ready[i] to its window's Arrive.
		cpu := &sc.sets[node]
		start := cpu.earliestGap(ready[i], exec)
		end := start + exec
		if end > g.Period {
			return nil, &UnschedulableError{Reason: fmt.Sprintf(
				"task %q on node %d finishes at %v > period %v", id, node, end, g.Period)}
		}
		cpu.reserve(id, start, end)
		t.tasks[i] = Slot{Task: id, Start: start, End: end}

		// Plan each output edge's transmission.
		for _, k := range g.OutputsAt(i) {
			e := g.Edges[k]
			dst, ok := assign[e.To]
			if !ok {
				return nil, &UnschedulableError{Reason: fmt.Sprintf("task %q unassigned", e.To)}
			}
			w := MsgWindow{Edge: e, From: node, To: dst, Depart: end, Arrive: end} // local handoff
			if dst != node {
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
					ls := &sc.sets[topo.N+int(a)*topo.N+int(b)]
					txStart := ls.earliestGap(at, tx)
					ls.reserve(id, txStart, txStart+tx)
					if depart < 0 {
						depart = txStart
					}
					at = txStart + tx + link.Prop
				}
				w.Depart, w.Arrive, w.Hops = depart, at, len(path)-1
			}
			t.Msgs[k] = w
			if j := g.Index(e.To); w.Arrive > ready[j] {
				ready[j] = w.Arrive
			}
			if w.Arrive > g.Period {
				return nil, &UnschedulableError{Reason: fmt.Sprintf(
					"edge %s->%s arrives at %v > period %v", e.From, e.To, w.Arrive, g.Period)}
			}
		}
	}
	// The CPU sets are scratch; the table gets its own copy of them.
	all := slots[n:n]
	for node, cpu := range sc.sets[:topo.N] {
		from := len(all)
		all = append(all, cpu.iv...)
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
		if f := t.Finish(id); f > g.Tasks[id].Deadline {
			vs = append(vs, Violation{Sink: id, Finish: f, Deadline: g.Tasks[id].Deadline})
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

// MaxUtilization returns the highest per-node utilization and its node,
// the lowest such node on a tie.
func (t *Table) MaxUtilization() (network.NodeID, float64) {
	var worst network.NodeID = -1
	var max float64 = -1
	for n := range t.Slots {
		if u := t.NodeUtilization(network.NodeID(n)); u > max {
			max, worst = u, network.NodeID(n)
		}
	}
	return worst, max
}

// SlotFor returns the execution slot of task id, if scheduled.
func (t *Table) SlotFor(id flow.TaskID) (Slot, bool) {
	if i := t.g.Index(id); i >= 0 {
		return t.tasks[i], true
	}
	return Slot{}, false
}

// Finish returns task id's completion offset, its slot's End (0 if id
// is not scheduled).
func (t *Table) Finish(id flow.TaskID) sim.Time {
	s, _ := t.SlotFor(id)
	return s.End
}

// Makespan returns the latest finish offset over all tasks.
func (t *Table) Makespan() sim.Time {
	var max sim.Time
	for _, s := range t.tasks {
		if s.End > max {
			max = s.End
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
	for _, w := range t.Msgs {
		if e := w.Edge; w.Depart < t.Finish(e.From) {
			return fmt.Errorf("edge %s->%s departs %v before producer finish %v",
				e.From, e.To, w.Depart, t.Finish(e.From))
		}
		if w.Arrive < w.Depart {
			return fmt.Errorf("edge %s->%s arrives before departing", w.Edge.From, w.Edge.To)
		}
	}
	for _, id := range g.TaskIDs() {
		if _, ok := t.SlotFor(id); !ok {
			return fmt.Errorf("task %q missing from table", id)
		}
	}
	return nil
}
