// Package flow models the paper's workload (§2.1): "a static, periodic
// workload that can be described as a dataflow graph". The system has a
// period P and releases a set of tasks during each period; each task
// requires inputs from sources and/or other tasks and sends at least one
// output to a sink or another task. Each sink output has a criticality
// level and a deadline by which it must arrive.
package flow

import (
	"fmt"
	"slices"

	"btr/internal/sim"
)

// TaskID names a task. Replica tasks derive IDs from the original
// ("ctrl" -> "ctrl#1"), which the plan package manages.
type TaskID string

// Criticality orders tasks by importance, highest first — modeled on
// avionics design-assurance levels. When a degraded mode is not
// schedulable, the planner sheds tasks from the lowest level upward (§4.1).
type Criticality int

const (
	// CritA is the highest level (e.g., flight control).
	CritA Criticality = iota
	// CritB is high (e.g., engine/pressure monitoring).
	CritB
	// CritC is medium (e.g., navigation display).
	CritC
	// CritD is the lowest (e.g., in-flight entertainment).
	CritD
	// NumCrits is the number of criticality levels.
	NumCrits
)

func (c Criticality) String() string {
	switch c {
	case CritA:
		return "A"
	case CritB:
		return "B"
	case CritC:
		return "C"
	case CritD:
		return "D"
	default:
		return fmt.Sprintf("crit(%d)", int(c))
	}
}

// Task is one node of the dataflow graph.
type Task struct {
	ID   TaskID
	WCET sim.Time    // worst-case execution time per period
	Crit Criticality // criticality level
	// StateBytes is internal state that must migrate when the task is
	// reassigned to a different node during a mode change (§4.1: "extra
	// reassignments consume resources, e.g., bandwidth for transferring
	// state, and can thus prolong recovery").
	StateBytes int64
	// Source tasks sample the physical world (no dataflow inputs);
	// Sink tasks actuate it (no dataflow outputs).
	Source, Sink bool
	// Deadline, for sinks, is the offset within each period by which the
	// sink's actuation must happen. Zero for non-sinks.
	Deadline sim.Time
}

// Edge is a directed dataflow dependency carrying Bytes per period.
type Edge struct {
	From, To TaskID
	Bytes    int64
}

// Graph is a validated periodic dataflow workload.
type Graph struct {
	Name   string
	Period sim.Time
	Tasks  map[TaskID]*Task
	Edges  []Edge

	ins, outs map[TaskID][]Edge
	// Sorted query results, computed on first use and dropped by AddTask
	// (topo and outAt also by Connect). Callers share them read-only.
	topo                []TaskID
	ids, sources, sinks []TaskID
	outAt               [][]int // by Index: Edges positions of its outputs
}

// NewGraph returns an empty graph with the given period.
func NewGraph(name string, period sim.Time) *Graph {
	return &Graph{
		Name:   name,
		Period: period,
		Tasks:  map[TaskID]*Task{},
		ins:    map[TaskID][]Edge{},
		outs:   map[TaskID][]Edge{},
	}
}

// AddTask inserts t. It panics on duplicate IDs (workloads are static
// configuration). The returned pointer may adjust the task only until the
// graph is first queried: TaskIDs, Sources and Sinks cache their result.
func (g *Graph) AddTask(t Task) *Task {
	if t.ID == "" {
		panic("flow: empty task ID")
	}
	if _, dup := g.Tasks[t.ID]; dup {
		panic(fmt.Sprintf("flow: duplicate task %q", t.ID))
	}
	cp := t
	g.Tasks[t.ID] = &cp
	g.topo, g.ids, g.sources, g.sinks, g.outAt = nil, nil, nil, nil, nil
	return &cp
}

// Connect adds a dataflow edge carrying bytes per period.
func (g *Graph) Connect(from, to TaskID, bytes int64) {
	if _, ok := g.Tasks[from]; !ok {
		panic(fmt.Sprintf("flow: edge from unknown task %q", from))
	}
	if _, ok := g.Tasks[to]; !ok {
		panic(fmt.Sprintf("flow: edge to unknown task %q", to))
	}
	e := Edge{From: from, To: to, Bytes: bytes}
	g.Edges = append(g.Edges, e)
	g.ins[to] = append(g.ins[to], e)
	g.outs[from] = append(g.outs[from], e)
	g.topo, g.outAt = nil, nil
}

// Reserve sizes task id's input and output lists, before its first
// Connect, for ins and outs edges, so the Connect calls that add them do
// not grow the lists one append at a time. One array holds both lists,
// each capacity-capped.
func (g *Graph) Reserve(id TaskID, ins, outs int) {
	l := make([]Edge, ins+outs)
	g.ins[id], g.outs[id] = l[:0:ins], l[ins:ins:ins+outs]
}

// Inputs returns the edges feeding id.
func (g *Graph) Inputs(id TaskID) []Edge { return g.ins[id] }

// Outputs returns the edges leaving id.
func (g *Graph) Outputs(id TaskID) []Edge { return g.outs[id] }

// Sources returns source task IDs, sorted. The slice is shared: read it,
// do not modify it.
func (g *Graph) Sources() []TaskID {
	if g.sources == nil {
		g.sources = g.filter(func(t *Task) bool { return t.Source })
	}
	return g.sources
}

// Sinks returns sink task IDs, sorted. The slice is shared: read it, do
// not modify it.
func (g *Graph) Sinks() []TaskID {
	if g.sinks == nil {
		g.sinks = g.filter(func(t *Task) bool { return t.Sink })
	}
	return g.sinks
}

// filter returns the IDs of the tasks pred selects, sorted, in one
// allocation. The result has no spare capacity, so appending to a shared
// copy cannot write into another caller's view.
func (g *Graph) filter(pred func(*Task) bool) []TaskID {
	var out []TaskID
	for id, t := range g.Tasks {
		if pred(t) {
			if out == nil {
				out = make([]TaskID, 0, len(g.Tasks))
			}
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return slices.Clip(out)
}

// TaskIDs returns all task IDs, sorted (deterministic iteration order).
// The slice is shared: read it, do not modify it.
func (g *Graph) TaskIDs() []TaskID {
	if g.ids == nil {
		g.ids = g.filter(func(*Task) bool { return true })
	}
	return g.ids
}

// TopoOrder returns tasks in a deterministic topological order (Kahn's
// algorithm with lexicographic tie-break). It panics if the graph has a
// cycle; call Validate first on untrusted input. The slice is shared:
// read it, do not modify it.
func (g *Graph) TopoOrder() []TaskID {
	if g.topo != nil {
		return g.topo
	}
	indeg := map[TaskID]int{}
	for id := range g.Tasks {
		indeg[id] = len(g.ins[id])
	}
	var ready []TaskID
	for id, d := range indeg {
		if d == 0 {
			ready = append(ready, id)
		}
	}
	slices.Sort(ready)
	var order []TaskID
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		var unlocked []TaskID
		for _, e := range g.outs[id] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				unlocked = append(unlocked, e.To)
			}
		}
		slices.Sort(unlocked)
		// Merge keeping ready sorted.
		ready = append(ready, unlocked...)
		slices.Sort(ready)
	}
	if len(order) != len(g.Tasks) {
		panic("flow: dataflow graph has a cycle")
	}
	g.topo = order
	return order
}

// Index returns id's position in TaskIDs(), or -1 if g has no task id:
// the dense task numbering that per-task tables use.
func (g *Graph) Index(id TaskID) int {
	if i, ok := slices.BinarySearch(g.TaskIDs(), id); ok {
		return i
	}
	return -1
}

// OutputsAt returns the positions in Edges of the outputs of the task at
// position i of TaskIDs(), in Outputs order. The lists are built on first
// use, in one backing array, and shared: read them, do not modify them.
func (g *Graph) OutputsAt(i int) []int {
	if g.outAt == nil {
		ids := g.TaskIDs()
		outAt, flat := make([][]int, len(ids)), make([]int, len(g.Edges))
		for j, id := range ids {
			n := len(g.outs[id])
			outAt[j], flat = flat[:0:n], flat[n:]
		}
		for k, e := range g.Edges {
			j := g.Index(e.From)
			outAt[j] = append(outAt[j], k)
		}
		g.outAt = outAt
	}
	return g.outAt[i]
}

// Validate checks structural invariants and returns a descriptive error
// for the first violation found.
func (g *Graph) Validate() error {
	if g.Period <= 0 {
		return fmt.Errorf("flow: non-positive period %v", g.Period)
	}
	if len(g.Tasks) == 0 {
		return fmt.Errorf("flow: empty graph")
	}
	for id, t := range g.Tasks {
		if t.WCET <= 0 {
			return fmt.Errorf("flow: task %q has non-positive WCET", id)
		}
		if t.WCET > g.Period {
			return fmt.Errorf("flow: task %q WCET %v exceeds period %v", id, t.WCET, g.Period)
		}
		if t.StateBytes < 0 {
			return fmt.Errorf("flow: task %q has negative state", id)
		}
		if t.Crit < CritA || t.Crit > CritD {
			return fmt.Errorf("flow: task %q has invalid criticality %d", id, t.Crit)
		}
		if t.Source && len(g.ins[id]) > 0 {
			return fmt.Errorf("flow: source %q has inputs", id)
		}
		if !t.Source && len(g.ins[id]) == 0 {
			return fmt.Errorf("flow: non-source %q has no inputs", id)
		}
		if t.Sink && len(g.outs[id]) > 0 {
			return fmt.Errorf("flow: sink %q has outputs", id)
		}
		if !t.Sink && len(g.outs[id]) == 0 {
			return fmt.Errorf("flow: non-sink %q has no outputs", id)
		}
		if t.Sink {
			if t.Deadline <= 0 || t.Deadline > g.Period {
				return fmt.Errorf("flow: sink %q deadline %v outside (0, period]", id, t.Deadline)
			}
		}
	}
	for _, e := range g.Edges {
		if e.Bytes <= 0 {
			return fmt.Errorf("flow: edge %s->%s carries %d bytes", e.From, e.To, e.Bytes)
		}
	}
	// Acyclicity: TopoOrder panics on cycles; convert to error.
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		g.TopoOrder()
		return nil
	}()
	return err
}

// Clone returns a deep copy (tasks and edges).
func (g *Graph) Clone() *Graph {
	c := NewGraph(g.Name, g.Period)
	for _, id := range g.TaskIDs() {
		c.AddTask(*g.Tasks[id])
	}
	for _, e := range g.Edges {
		c.Connect(e.From, e.To, e.Bytes)
	}
	return c
}

// TotalWCET sums per-period execution demand over all tasks.
func (g *Graph) TotalWCET() sim.Time {
	var sum sim.Time
	for _, t := range g.Tasks {
		sum += t.WCET
	}
	return sum
}

// TasksAtOrAbove returns IDs with criticality c or more critical, sorted.
func (g *Graph) TasksAtOrAbove(c Criticality) []TaskID {
	return g.filter(func(t *Task) bool { return t.Crit <= c })
}

// CritPath returns the longest WCET-weighted path (ignoring network
// delays); a quick lower bound on achievable end-to-end latency.
func (g *Graph) CritPath() sim.Time {
	longest := map[TaskID]sim.Time{}
	var max sim.Time
	for _, id := range g.TopoOrder() {
		best := sim.Time(0)
		for _, e := range g.ins[id] {
			if longest[e.From] > best {
				best = longest[e.From]
			}
		}
		longest[id] = best + g.Tasks[id].WCET
		if longest[id] > max {
			max = longest[id]
		}
	}
	return max
}

// SinkOf returns, for each task, the set of sinks reachable from it. The
// planner uses this to propagate deadlines and to decide which sink
// outputs a fault on a given task can corrupt.
func (g *Graph) SinkOf() map[TaskID][]TaskID {
	reach := map[TaskID]map[TaskID]bool{}
	order := g.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		set := map[TaskID]bool{}
		if g.Tasks[id].Sink {
			set[id] = true
		}
		for _, e := range g.outs[id] {
			for s := range reach[e.To] {
				set[s] = true
			}
		}
		reach[id] = set
	}
	out := map[TaskID][]TaskID{}
	for id, set := range reach {
		var sinks []TaskID
		for s := range set {
			sinks = append(sinks, s)
		}
		slices.Sort(sinks)
		out[id] = sinks
	}
	return out
}
