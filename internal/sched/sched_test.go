package sched

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sim"
)

// fastParams removes crypto costs so latency arithmetic in tests stays
// simple; individual tests opt back in.
func fastParams() Params {
	p := DefaultParams()
	p.SignCost, p.VerifyCost = 0, 0
	return p
}

func allOn(g *flow.Graph, node network.NodeID) map[flow.TaskID]network.NodeID {
	m := map[flow.TaskID]network.NodeID{}
	for _, id := range g.TaskIDs() {
		m[id] = node
	}
	return m
}

func TestSingleNodeChain(t *testing.T) {
	g := flow.Chain(3, 10*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	topo := network.Line(1, 1_000_000, 0)
	tab, err := Build(g, allOn(g, 0), topo, fastParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.VerifySanity(g); err != nil {
		t.Fatal(err)
	}
	// Three sequential 1ms tasks on one CPU.
	if tab.Finish("c2") != 3*sim.Millisecond {
		t.Errorf("c2 finish = %v, want 3ms", tab.Finish("c2"))
	}
	if vs := tab.CheckDeadlines(g); len(vs) != 0 {
		t.Errorf("unexpected violations: %v", vs)
	}
	if u := tab.NodeUtilization(0); u < 0.29 || u > 0.31 {
		t.Errorf("utilization = %v, want ~0.3", u)
	}
}

func TestTwoNodeChainIncludesNetwork(t *testing.T) {
	g := flow.Chain(2, 10*sim.Millisecond, sim.Millisecond, 968, flow.CritA)
	topo := network.Line(2, 1_250_000, sim.Millisecond) // fg share 1MB/s
	assign := map[flow.TaskID]network.NodeID{"c0": 0, "c1": 1}
	tab, err := Build(g, assign, topo, fastParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// c0: [0,1ms); tx 968B@1MB/s = 968us; prop 1ms; c1 starts at
	// 1+0.968+1 = 2.968ms, finishes 3.968ms.
	want := sim.Time(3968)
	if tab.Finish("c1") != want {
		t.Errorf("c1 finish = %v, want %v", tab.Finish("c1"), want)
	}
	w := tab.Msgs[0]
	if w.Depart != sim.Millisecond || w.Hops != 1 {
		t.Errorf("msg window = %+v", w)
	}
}

func TestCryptoCostsCharged(t *testing.T) {
	g := flow.Chain(2, 10*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	topo := network.Line(2, 1_000_000, 0)
	assign := map[flow.TaskID]network.NodeID{"c0": 0, "c1": 1}
	p := fastParams()
	p.SignCost, p.VerifyCost = 100*sim.Microsecond, 200*sim.Microsecond
	tab, err := Build(g, assign, topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	// c0 has one output edge: work = 1ms + 100us.
	if tab.Finish("c0") != 1100*sim.Microsecond {
		t.Errorf("c0 finish = %v, want 1.1ms", tab.Finish("c0"))
	}
}

func TestSpeedScaling(t *testing.T) {
	g := flow.Chain(3, 10*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	topo := network.Line(1, 1_000_000, 0)
	p := fastParams()
	p.Speed = 2.0
	tab, err := Build(g, allOn(g, 0), topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Finish("c2") != 1500*sim.Microsecond {
		t.Errorf("2x speed: c2 finish = %v, want 1.5ms", tab.Finish("c2"))
	}
	p.Speed = 0.5
	tab, err = Build(g, allOn(g, 0), topo, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Finish("c2") != 6*sim.Millisecond {
		t.Errorf("0.5x speed: c2 finish = %v, want 6ms", tab.Finish("c2"))
	}
}

func TestUnschedulableWhenOverloaded(t *testing.T) {
	// 12 x 1ms tasks in a 10ms period on one CPU cannot fit.
	g := flow.Chain(12, 10*sim.Millisecond, sim.Millisecond, 8, flow.CritA)
	topo := network.Line(1, 1_000_000, 0)
	_, err := Build(g, allOn(g, 0), topo, fastParams(), nil)
	if err == nil {
		t.Fatal("expected unschedulable")
	}
	if _, ok := err.(*UnschedulableError); !ok {
		t.Errorf("error type = %T, want *UnschedulableError", err)
	}
}

func TestMissingAssignment(t *testing.T) {
	g := flow.Chain(2, 10*sim.Millisecond, sim.Millisecond, 8, flow.CritA)
	topo := network.Line(1, 1_000_000, 0)
	_, err := Build(g, map[flow.TaskID]network.NodeID{"c0": 0}, topo, fastParams(), nil)
	if err == nil || !strings.Contains(err.Error(), "unassigned") {
		t.Errorf("err = %v, want unassigned", err)
	}
}

func TestNoRoute(t *testing.T) {
	g := flow.Chain(2, 10*sim.Millisecond, sim.Millisecond, 8, flow.CritA)
	topo := network.NewTopology(3, []network.Link{{A: 0, B: 1, Bandwidth: 1000}})
	assign := map[flow.TaskID]network.NodeID{"c0": 0, "c1": 2} // 2 is isolated
	_, err := Build(g, assign, topo, fastParams(), nil)
	if err == nil || !strings.Contains(err.Error(), "no route") {
		t.Errorf("err = %v, want no route", err)
	}
}

func TestParallelTasksOnDistinctNodes(t *testing.T) {
	g := flow.ForkJoin(2, 20*sim.Millisecond, sim.Millisecond, 64, flow.CritB)
	topo := network.FullMesh(4, 10_000_000, 0)
	assign := map[flow.TaskID]network.NodeID{
		"src": 0, "w0": 1, "w1": 2, "join": 3, "sink": 3,
	}
	tab, err := Build(g, assign, topo, fastParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.VerifySanity(g); err != nil {
		t.Fatal(err)
	}
	// w0 and w1 run in parallel: both should start at the same offset.
	s0, _ := tab.SlotFor("w0")
	s1, _ := tab.SlotFor("w1")
	if s0.Start != s1.Start {
		t.Errorf("parallel workers start at %v and %v", s0.Start, s1.Start)
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	// Two producers on node 0 both send 1ms-sized messages to node 1;
	// windows on the directed link must not overlap.
	g := flow.NewGraph("contend", 20*sim.Millisecond)
	g.AddTask(flow.Task{ID: "a", WCET: sim.Millisecond, Crit: flow.CritA, Source: true})
	g.AddTask(flow.Task{ID: "b", WCET: sim.Millisecond, Crit: flow.CritA, Source: true})
	g.AddTask(flow.Task{ID: "k", WCET: sim.Millisecond, Crit: flow.CritA, Sink: true, Deadline: 20 * sim.Millisecond})
	g.Connect("a", "k", 968)
	g.Connect("b", "k", 968)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	topo := network.Line(2, 1_250_000, 0) // fg 1MB/s => 968B ~ 968us... wait header not modeled in sched
	assign := map[flow.TaskID]network.NodeID{"a": 0, "b": 0, "k": 1}
	tab, err := Build(g, assign, topo, fastParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := tab.Msgs[0], tab.Msgs[1]
	// Same link, same direction: transmissions must be disjoint.
	lo, hi := w1, w2
	if lo.Depart > hi.Depart {
		lo, hi = hi, lo
	}
	if hi.Depart < lo.Arrive {
		t.Errorf("link transmissions overlap: %+v vs %+v", w1, w2)
	}
}

func TestDeadlineViolationDetected(t *testing.T) {
	g := flow.NewGraph("tight", 10*sim.Millisecond)
	g.AddTask(flow.Task{ID: "s", WCET: sim.Millisecond, Crit: flow.CritA, Source: true})
	g.AddTask(flow.Task{ID: "k", WCET: sim.Millisecond, Crit: flow.CritA, Sink: true,
		Deadline: 1500 * sim.Microsecond}) // needs 2ms
	g.Connect("s", "k", 8)
	topo := network.Line(1, 1_000_000, 0)
	tab, err := Build(g, allOn(g, 0), topo, fastParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	vs := tab.CheckDeadlines(g)
	if len(vs) != 1 || vs[0].Sink != "k" {
		t.Fatalf("violations = %v, want one on k", vs)
	}
	if !strings.Contains(vs[0].String(), "deadline") {
		t.Error("violation string unhelpful")
	}
}

func TestAvionicsSchedulesOnFourNodes(t *testing.T) {
	g := flow.Avionics(20 * sim.Millisecond)
	topo := network.FullMesh(4, 10_000_000, 100*sim.Microsecond)
	// Round-robin assignment.
	assign := map[flow.TaskID]network.NodeID{}
	for i, id := range g.TaskIDs() {
		assign[id] = network.NodeID(i % 4)
	}
	tab, err := Build(g, assign, topo, DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.VerifySanity(g); err != nil {
		t.Fatal(err)
	}
	if vs := tab.CheckDeadlines(g); len(vs) != 0 {
		t.Errorf("avionics violations: %v", vs)
	}
}

func TestMakespanAndMaxUtilization(t *testing.T) {
	g := flow.Chain(3, 10*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	topo := network.Line(2, 1_000_000, 0)
	assign := map[flow.TaskID]network.NodeID{"c0": 0, "c1": 0, "c2": 1}
	tab, err := Build(g, assign, topo, fastParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Makespan() != tab.Finish("c2") {
		t.Errorf("makespan %v != c2 finish %v", tab.Makespan(), tab.Finish("c2"))
	}
	node, u := tab.MaxUtilization()
	if node != 0 || u < tab.NodeUtilization(1) {
		t.Errorf("MaxUtilization = node %d (%v)", node, u)
	}
}

func TestIntervalSetGapFinding(t *testing.T) {
	s := &intervalSet{}
	s.reserve("a", 10, 20)
	s.reserve("b", 30, 40)
	cases := []struct{ from, dur, want sim.Time }{
		{0, 5, 0},    // fits before first interval
		{0, 10, 0},   // exactly fits
		{0, 11, 40},  // too big for either gap -> after "b"
		{12, 5, 20},  // from inside "a" -> after it
		{20, 10, 20}, // exact middle gap
		{20, 11, 40}, // middle gap too small -> after "b"
		{50, 5, 50},  // after everything
	}
	for _, c := range cases {
		if got := s.earliestGap(c.from, c.dur); got != c.want {
			t.Errorf("earliestGap(%d,%d) = %d, want %d", c.from, c.dur, got, c.want)
		}
	}
}

func TestPropertyNoCPUOverlapRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		g := flow.Random(rng, 40*sim.Millisecond, flow.DefaultRandomOpts())
		topo := network.FullMesh(4, 10_000_000, 0)
		assign := map[flow.TaskID]network.NodeID{}
		for _, id := range g.TaskIDs() {
			assign[id] = network.NodeID(rng.Intn(4))
		}
		tab, err := Build(g, assign, topo, DefaultParams(), nil)
		if err != nil {
			return true // unschedulable is a legitimate outcome
		}
		return tab.VerifySanity(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPrecedencesRespected(t *testing.T) {
	// For every edge, the consumer must start at/after the producer's
	// message arrival.
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		g := flow.Random(rng, 40*sim.Millisecond, flow.DefaultRandomOpts())
		topo := network.Ring(5, 10_000_000, 50*sim.Microsecond)
		assign := map[flow.TaskID]network.NodeID{}
		for _, id := range g.TaskIDs() {
			assign[id] = network.NodeID(rng.Intn(5))
		}
		tab, err := Build(g, assign, topo, DefaultParams(), nil)
		if err != nil {
			return true
		}
		for k, e := range g.Edges {
			w := tab.Msgs[k]
			slot, ok := tab.SlotFor(e.To)
			if !ok || slot.Start < w.Arrive {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuildAvionics(b *testing.B) {
	g := flow.Avionics(20 * sim.Millisecond)
	topo := network.FullMesh(4, 10_000_000, 100*sim.Microsecond)
	assign := map[flow.TaskID]network.NodeID{}
	for i, id := range g.TaskIDs() {
		assign[id] = network.NodeID(i % 4)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, assign, topo, DefaultParams(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// spread assigns g's tasks round-robin over n nodes in sorted-ID order.
func spread(g *flow.Graph, n int) map[flow.TaskID]network.NodeID {
	m := map[flow.TaskID]network.NodeID{}
	for i, id := range g.TaskIDs() {
		m[id] = network.NodeID(i % n)
	}
	return m
}

// TestBuildReusesScratchCleanly pins Build's reused scratch: whatever a
// previous call left behind (a larger graph on more links, or a build
// that failed half way), and however many goroutines build at once, each
// on a scratch of its own, a table equals the one built first.
func TestBuildReusesScratchCleanly(t *testing.T) {
	type input struct {
		g    *flow.Graph
		topo *network.Topology
		p    Params
	}
	mesh4 := network.FullMesh(4, 20_000_000, 50*sim.Microsecond)
	cases := []input{
		{flow.Avionics(25 * sim.Millisecond), network.Ring(6, 1_000_000, 100*sim.Microsecond), DefaultParams()},
		{flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA), mesh4, DefaultParams()},
		{flow.ForkJoin(5, 50*sim.Millisecond, sim.Millisecond, 256, flow.CritB), network.Grid(3, 3, 2_000_000, 200*sim.Microsecond), DefaultParams()},
		// Unschedulable: the chain outruns its period after the first
		// tasks and links are reserved. It must stay last.
		{flow.Chain(6, 10*sim.Millisecond, 3*sim.Millisecond, 64, flow.CritA), mesh4, DefaultParams()},
	}
	build := func(c input, sc *Scratch) (*Table, error) {
		return Build(c.g, spread(c.g, c.topo.N), c.topo, c.p, sc)
	}
	same := reflect.DeepEqual
	want := make([]*Table, len(cases))
	for i, c := range cases {
		tab, err := build(c, nil)
		if (err != nil) != (i == len(cases)-1) {
			t.Fatalf("case %d: err = %v", i, err)
		}
		if err != nil && !strings.Contains(err.Error(), "c2") && !strings.Contains(err.Error(), "c3") {
			t.Fatalf("case %d fails too early to leave reservations behind: %v", i, err)
		}
		want[i] = tab
	}
	// Twice in a row on one scratch, in reverse order so every case
	// follows another.
	sc := new(Scratch)
	for round := 0; round < 2; round++ {
		for i := len(cases) - 1; i >= 0; i-- {
			if got, _ := build(cases[i], sc); !same(got, want[i]) {
				t.Fatalf("round %d case %d: rebuilt table differs from the first build", round, i)
			}
		}
	}
	// Concurrently (run with -race).
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(cases))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := new(Scratch)
			for r := 0; r < 10; r++ {
				i := (w + r) % len(cases)
				if got, _ := build(cases[i], sc); !same(got, want[i]) {
					errs <- fmt.Sprintf("worker %d case %d: concurrent build differs", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestBuildAllocPin pins what one Build allocates for a six-task chain
// on a full mesh of 8: the Table, its Slots and Msgs, and one array for
// the task index and all nodes' slots. The caller owns the scratch, which
// carves every interval set at its final size, and the graph's numbering
// is built once, so nothing per task, edge or node remains. Measured 4
// (5 with the two slot arrays apart, 8 for the map-backed table); the pin
// allows 1 more. The count is the same under -race and across a
// collection, which emptied the sync.Pool the scratch used to live in.
func TestBuildAllocPin(t *testing.T) {
	g := flow.Chain(6, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	topo := network.FullMesh(8, 20_000_000, 50*sim.Microsecond)
	assign := map[flow.TaskID]network.NodeID{}
	for i, id := range g.TaskIDs() {
		assign[id] = network.NodeID(i * 3 % 8)
	}
	sc := new(Scratch)
	build := func() {
		if _, err := Build(g, assign, topo, DefaultParams(), sc); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, build); got > 5 {
		t.Errorf("Build allocates %.2f, want <= 5", got)
	}
	// A collection between two builds takes nothing from the scratch, as
	// it emptied the sync.Pool the scratch used to live in. Mallocs also
	// counts the runtime's own objects (under the race detector a
	// collection sometimes adds 6), so the least of three rounds is
	// checked; a scratch the collector empties is rebuilt every round.
	least := ^uint64(0)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		build()
		runtime.GC()
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least > 5 {
		t.Errorf("Build after a collection allocates %d, want <= 5", least)
	}
}
