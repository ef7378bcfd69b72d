package flow

import (
	"strings"
	"testing"
	"testing/quick"

	"btr/internal/sim"
)

func mustValid(t *testing.T, g *Graph) {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("graph %q invalid: %v", g.Name, err)
	}
}

func TestChainValidates(t *testing.T) {
	g := Chain(5, 10*sim.Millisecond, sim.Millisecond, 64, CritA)
	mustValid(t, g)
	if len(g.Sources()) != 1 || len(g.Sinks()) != 1 {
		t.Errorf("chain sources/sinks = %v/%v", g.Sources(), g.Sinks())
	}
	order := g.TopoOrder()
	if len(order) != 5 || order[0] != "c0" || order[4] != "c4" {
		t.Errorf("topo order = %v", order)
	}
}

func TestForkJoinValidates(t *testing.T) {
	g := ForkJoin(3, 20*sim.Millisecond, sim.Millisecond, 64, CritB)
	mustValid(t, g)
	if len(g.Inputs("join")) != 3 {
		t.Errorf("join inputs = %d, want 3", len(g.Inputs("join")))
	}
	if len(g.Outputs("src")) != 3 {
		t.Errorf("src outputs = %d, want 3", len(g.Outputs("src")))
	}
}

func TestAvionicsValidates(t *testing.T) {
	g := Avionics(20 * sim.Millisecond)
	mustValid(t, g)
	if len(g.Tasks) != 13 {
		t.Errorf("avionics has %d tasks, want 13", len(g.Tasks))
	}
	// All four criticality levels must be present.
	seen := map[Criticality]bool{}
	for _, task := range g.Tasks {
		seen[task.Crit] = true
	}
	for c := CritA; c <= CritD; c++ {
		if !seen[c] {
			t.Errorf("criticality %v missing from avionics suite", c)
		}
	}
	// Flight-control deadline must be tighter than the period.
	if g.Tasks["elevator"].Deadline >= g.Period {
		t.Error("elevator deadline should be < period")
	}
}

func TestControlLoopValidates(t *testing.T) {
	g := ControlLoop(50*sim.Millisecond, CritA)
	mustValid(t, g)
	if len(g.Tasks) != 3 {
		t.Errorf("control loop has %d tasks", len(g.Tasks))
	}
}

func TestRandomValidates(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		g := Random(rng, 20*sim.Millisecond, DefaultRandomOpts())
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRandomDeterministic(t *testing.T) {
	g1 := Random(sim.NewRNG(5), 10*sim.Millisecond, DefaultRandomOpts())
	g2 := Random(sim.NewRNG(5), 10*sim.Millisecond, DefaultRandomOpts())
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatal("same seed produced different edges")
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	period := 10 * sim.Millisecond
	cases := []struct {
		name    string
		build   func() *Graph
		wantSub string
	}{
		{"empty", func() *Graph { return NewGraph("e", period) }, "empty"},
		{"bad period", func() *Graph {
			g := NewGraph("p", 0)
			g.AddTask(Task{ID: "a", WCET: 1, Source: true, Sink: true, Deadline: 1})
			return g
		}, "period"},
		{"zero wcet", func() *Graph {
			g := NewGraph("w", period)
			g.AddTask(Task{ID: "a", WCET: 0, Source: true, Sink: true, Deadline: 1})
			return g
		}, "WCET"},
		{"wcet exceeds period", func() *Graph {
			g := NewGraph("w2", period)
			g.AddTask(Task{ID: "a", WCET: period * 2, Source: true, Sink: true, Deadline: period})
			return g
		}, "exceeds period"},
		{"source with inputs", func() *Graph {
			g := NewGraph("si", period)
			g.AddTask(Task{ID: "a", WCET: 1, Source: true})
			g.AddTask(Task{ID: "b", WCET: 1, Source: true, Sink: true, Deadline: 1})
			g.Connect("a", "b", 8)
			return g
		}, "has inputs"},
		{"orphan non-source", func() *Graph {
			g := NewGraph("or", period)
			g.AddTask(Task{ID: "a", WCET: 1, Sink: true, Deadline: 1})
			return g
		}, "no inputs"},
		{"sink with outputs", func() *Graph {
			g := NewGraph("so", period)
			g.AddTask(Task{ID: "a", WCET: 1, Source: true, Sink: true, Deadline: 1})
			g.AddTask(Task{ID: "b", WCET: 1, Sink: true, Deadline: 1})
			g.Connect("a", "b", 8)
			return g
		}, "has outputs"},
		{"dead-end non-sink", func() *Graph {
			g := NewGraph("de", period)
			g.AddTask(Task{ID: "a", WCET: 1, Source: true})
			return g
		}, "no outputs"},
		{"missing sink deadline", func() *Graph {
			g := NewGraph("dl", period)
			g.AddTask(Task{ID: "a", WCET: 1, Source: true, Sink: true})
			return g
		}, "deadline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.build().Validate()
			if err == nil {
				t.Fatalf("%s: Validate passed", c.name)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
			}
		})
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewGraph("cyc", 10*sim.Millisecond)
	g.AddTask(Task{ID: "s", WCET: 1, Source: true})
	g.AddTask(Task{ID: "a", WCET: 1})
	g.AddTask(Task{ID: "b", WCET: 1})
	g.AddTask(Task{ID: "k", WCET: 1, Sink: true, Deadline: 1})
	g.Connect("s", "a", 8)
	g.Connect("a", "b", 8)
	g.Connect("b", "a", 8) // cycle a<->b
	g.Connect("b", "k", 8)
	if err := g.Validate(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	f := func(seed uint64) bool {
		g := Random(sim.NewRNG(seed), 10*sim.Millisecond, DefaultRandomOpts())
		pos := map[TaskID]int{}
		for i, id := range g.TopoOrder() {
			pos[id] = i
		}
		for _, e := range g.Edges {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := Avionics(20 * sim.Millisecond)
	c := g.Clone()
	mustValid(t, c)
	c.Tasks["gyro"].WCET = 999
	if g.Tasks["gyro"].WCET == 999 {
		t.Error("clone shares task structs with original")
	}
	if len(c.Edges) != len(g.Edges) {
		t.Error("clone edge count differs")
	}
}

func TestTotalWCETAndCritPath(t *testing.T) {
	g := Chain(4, 10*sim.Millisecond, sim.Millisecond, 8, CritA)
	if got := g.TotalWCET(); got != 4*sim.Millisecond {
		t.Errorf("TotalWCET = %v, want 4ms", got)
	}
	if got := g.CritPath(); got != 4*sim.Millisecond {
		t.Errorf("CritPath = %v, want 4ms", got)
	}
	// Fork-join: crit path is src+w+join+sink = 4 tasks deep, not total.
	fj := ForkJoin(5, 20*sim.Millisecond, sim.Millisecond, 8, CritA)
	if got := fj.CritPath(); got != 4*sim.Millisecond {
		t.Errorf("fork-join CritPath = %v, want 4ms", got)
	}
}

func TestTasksAtOrAbove(t *testing.T) {
	g := Avionics(20 * sim.Millisecond)
	all := g.TasksAtOrAbove(CritD)
	if len(all) != len(g.Tasks) {
		t.Errorf("TasksAtOrAbove(D) = %d tasks, want all %d", len(all), len(g.Tasks))
	}
	aOnly := g.TasksAtOrAbove(CritA)
	for _, id := range aOnly {
		if g.Tasks[id].Crit != CritA {
			t.Errorf("task %q in A-set has crit %v", id, g.Tasks[id].Crit)
		}
	}
	if len(aOnly) == 0 || len(aOnly) >= len(all) {
		t.Errorf("A-set size %d implausible vs %d", len(aOnly), len(all))
	}
}

func TestSinkOf(t *testing.T) {
	g := Avionics(20 * sim.Millisecond)
	so := g.SinkOf()
	// gyro feeds both flight control (elevator) and navigation (display).
	gyroSinks := so["gyro"]
	if len(gyroSinks) != 2 || gyroSinks[0] != "display" || gyroSinks[1] != "elevator" {
		t.Errorf("SinkOf(gyro) = %v, want [display elevator]", gyroSinks)
	}
	// A sink reaches itself only.
	if s := so["valve"]; len(s) != 1 || s[0] != "valve" {
		t.Errorf("SinkOf(valve) = %v", s)
	}
	// media only reaches cabin.
	if s := so["media"]; len(s) != 1 || s[0] != "cabin" {
		t.Errorf("SinkOf(media) = %v", s)
	}
}

func TestDuplicateTaskPanics(t *testing.T) {
	g := NewGraph("dup", sim.Second)
	g.AddTask(Task{ID: "a", WCET: 1, Source: true})
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddTask did not panic")
		}
	}()
	g.AddTask(Task{ID: "a", WCET: 1})
}

func TestConnectUnknownPanics(t *testing.T) {
	g := NewGraph("unk", sim.Second)
	g.AddTask(Task{ID: "a", WCET: 1, Source: true})
	defer func() {
		if recover() == nil {
			t.Error("Connect to unknown task did not panic")
		}
	}()
	g.Connect("a", "ghost", 8)
}

func TestCriticalityString(t *testing.T) {
	if CritA.String() != "A" || CritD.String() != "D" {
		t.Error("criticality strings wrong")
	}
}

func TestTaskIDsSorted(t *testing.T) {
	g := Avionics(20 * sim.Millisecond)
	ids := g.TaskIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatalf("TaskIDs not sorted: %v", ids)
		}
	}
}

// TestReserveSizesLists: after Reserve, the Connect calls that fill a
// task's lists append in place instead of growing them, and a list that
// outgrows its room moves instead of writing into the other.
func TestReserveSizesLists(t *testing.T) {
	g := NewGraph("r", 10*sim.Millisecond)
	for _, id := range []TaskID{"a", "b", "c", "d"} {
		g.AddTask(Task{ID: id, WCET: sim.Millisecond})
	}
	g.Reserve("a", 0, 3)
	g.Reserve("b", 2, 0)
	g.Connect("a", "b", 1)
	outs, ins := &g.Outputs("a")[0], &g.Inputs("b")[0]
	g.Connect("a", "c", 2)
	g.Connect("a", "b", 3)
	if &g.Outputs("a")[0] != outs || &g.Inputs("b")[0] != ins {
		t.Fatal("a reserved list grew while Connect filled it")
	}
	if in := g.Inputs("b"); len(in) != 2 || in[0].Bytes != 1 || in[1].Bytes != 3 {
		t.Fatalf("b's inputs %v", in)
	}
	g.Reserve("d", 1, 1)
	g.Connect("b", "d", 4)
	g.Connect("a", "d", 5) // past d's room for inputs
	g.Connect("d", "c", 6)
	if in, out := g.Inputs("d"), g.Outputs("d"); len(in) != 2 || len(out) != 1 || out[0].Bytes != 6 {
		t.Fatalf("d's inputs %v, outputs %v: an overflowing list wrote into the other", in, out)
	}
}
