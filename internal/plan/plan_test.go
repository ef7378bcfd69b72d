package plan

import (
	"strings"
	"testing"
	"testing/quick"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sim"
)

func TestFaultSetCanonical(t *testing.T) {
	a := NewFaultSet(3, 1, 3, 2)
	if a.Key() != "1,2,3" {
		t.Errorf("Key = %q, want 1,2,3", a.Key())
	}
	if a.Len() != 3 {
		t.Errorf("Len = %d", a.Len())
	}
	if !a.Contains(2) || a.Contains(4) {
		t.Error("Contains wrong")
	}
	if NewFaultSet().Key() != "" {
		t.Error("empty key should be empty string")
	}
	if NewFaultSet().String() != "{}" {
		t.Error("empty String wrong")
	}
}

func TestFaultSetOps(t *testing.T) {
	a := NewFaultSet(1, 2)
	b := a.With(3)
	if b.Key() != "1,2,3" || a.Key() != "1,2" {
		t.Error("With mutated receiver or failed")
	}
	if b.With(3).Key() != b.Key() {
		t.Error("With duplicate changed set")
	}
	if b.Without(2).Key() != "1,3" {
		t.Error("Without failed")
	}
	if !a.Equal(NewFaultSet(2, 1)) {
		t.Error("Equal wrong")
	}
}

func TestFaultSetPredecessors(t *testing.T) {
	preds := NewFaultSet(1, 5, 9).Predecessors()
	if len(preds) != 3 {
		t.Fatalf("got %d predecessors", len(preds))
	}
	keys := map[string]bool{}
	for _, p := range preds {
		keys[p.Key()] = true
	}
	for _, want := range []string{"5,9", "1,9", "1,5"} {
		if !keys[want] {
			t.Errorf("missing predecessor %q", want)
		}
	}
}

func TestEnumerateFaultSets(t *testing.T) {
	sets := EnumerateFaultSets(4, 2)
	// C(4,0)+C(4,1)+C(4,2) = 1+4+6 = 11
	if len(sets) != 11 {
		t.Fatalf("got %d sets, want 11", len(sets))
	}
	if sets[0].Len() != 0 {
		t.Error("first set should be empty (BFS order)")
	}
	for i := 1; i < len(sets); i++ {
		if sets[i].Len() < sets[i-1].Len() {
			t.Fatal("not in BFS order")
		}
	}
	seen := map[string]bool{}
	for _, s := range sets {
		if seen[s.Key()] {
			t.Fatalf("duplicate set %v", s)
		}
		seen[s.Key()] = true
	}
}

func TestFaultSetPropertyCanonical(t *testing.T) {
	f := func(xs []uint8) bool {
		nodes := make([]network.NodeID, len(xs))
		for i, x := range xs {
			nodes[i] = network.NodeID(x % 16)
		}
		a := NewFaultSet(nodes...)
		b := NewFaultSet(append([]network.NodeID{}, a.Nodes()...)...)
		return a.Key() == b.Key() && a.Len() <= 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitReplica(t *testing.T) {
	cases := []struct {
		in      flow.TaskID
		logical flow.TaskID
		idx     int
	}{
		{"fc.law#2", "fc.law", 2},
		{"chk:valve#0", "chk:valve", 0},
		{"plain", "plain", -1},
		{"odd#name#3", "odd#name", 3},
	}
	for _, c := range cases {
		l, i := SplitReplica(c.in)
		if l != c.logical || i != c.idx {
			t.Errorf("SplitReplica(%q) = %q,%d want %q,%d", c.in, l, i, c.logical, c.idx)
		}
	}
}

func TestAugmentStructure(t *testing.T) {
	g := flow.Chain(3, 20*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	aug := Augment(g, DefaultAugment(1)) // f=1: sources 3x, others 2x
	if err := aug.Validate(); err != nil {
		t.Fatalf("augmented graph invalid: %v", err)
	}
	// c0 is a source: 3 replicas. c1: 2. c2 (sink): 2. chk:c2: 2.
	counts := map[flow.TaskID]int{}
	for _, id := range aug.TaskIDs() {
		logical, _ := SplitReplica(id)
		counts[logical]++
	}
	if counts["c0"] != 3 || counts["c1"] != 2 || counts["c2"] != 2 || counts["chk:c2"] != 2 {
		t.Errorf("replica counts = %v", counts)
	}
	// Edge bundle c0->c1: 3x2 = 6 edges; c1->c2: 2x2 = 4; c2->chk: 2x2 = 4.
	if len(aug.Edges) != 6+4+4 {
		t.Errorf("edges = %d, want 14", len(aug.Edges))
	}
	// Sink status moved to checkers.
	for _, s := range aug.Sinks() {
		logical, _ := SplitReplica(s)
		if !IsChecker(logical) {
			t.Errorf("augmented sink %q is not a checker", s)
		}
	}
}

// TestAugmentAllocPin pins what Augment allocates for the avionics
// workload at f = 2: every replica's edge lists (one array per replica)
// and the edge list are reserved at their final sizes before a bundle is
// connected, so no list grows one append at a time. Measured 216 (447
// with growing lists); the pin allows 20 more.
func TestAugmentAllocPin(t *testing.T) {
	g := flow.Avionics(25 * sim.Millisecond)
	if got := testing.AllocsPerRun(20, func() { Augment(g, DefaultAugment(2)) }); got > 236 {
		t.Errorf("Augment allocates %.0f, want <= 236", got)
	}
}

func TestAugmentWireBytesGrow(t *testing.T) {
	g := flow.Chain(3, 20*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	aug := Augment(g, DefaultAugment(1))
	for _, e := range aug.Edges {
		if e.Bytes <= 64 {
			t.Fatalf("edge %s->%s bytes %d: accountability overhead missing", e.From, e.To, e.Bytes)
		}
	}
}

func TestAssignAntiAffinity(t *testing.T) {
	g := flow.Chain(3, 20*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	aug := Augment(g, DefaultAugment(1))
	topo := network.FullMesh(5, 10_000_000, 0)
	a, err := assignFresh(aug, topo, assignOptions{faults: NewFaultSet(), locality: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAssignment(aug, a, NewFaultSet()); err != nil {
		t.Fatal(err)
	}
}

func TestAssignAvoidsFaultyNodes(t *testing.T) {
	g := flow.Chain(3, 20*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	aug := Augment(g, DefaultAugment(1))
	topo := network.FullMesh(5, 10_000_000, 0)
	fs := NewFaultSet(0, 3)
	a, err := assignFresh(aug, topo, assignOptions{faults: fs, locality: true})
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range a {
		if fs.Contains(n) {
			t.Errorf("%q assigned to faulty node %d", id, n)
		}
	}
}

func TestAssignFailsWithTooFewNodes(t *testing.T) {
	g := flow.Chain(3, 20*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	aug := Augment(g, DefaultAugment(1)) // sources need 3 distinct nodes
	topo := network.FullMesh(4, 10_000_000, 0)
	_, err := assignFresh(aug, topo, assignOptions{faults: NewFaultSet(0, 1), locality: true})
	if err == nil {
		t.Fatal("assignment with 2 healthy nodes for 3 source replicas should fail")
	}
	if !strings.Contains(err.Error(), "replicas") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestAssignStickiness(t *testing.T) {
	g := flow.Chain(3, 20*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	aug := Augment(g, DefaultAugment(1))
	topo := network.FullMesh(6, 10_000_000, 0)
	base, err := assignFresh(aug, topo, assignOptions{faults: NewFaultSet(), locality: true})
	if err != nil {
		t.Fatal(err)
	}
	// Fail a node not hosting anything, or any node; sticky assignment
	// should keep every replica that is not on the failed node.
	failed := base["c1#0"]
	derived, err := assignFresh(aug, topo, assignOptions{
		faults: NewFaultSet(failed), parent: base, locality: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	movedUnnecessarily := 0
	for id, n := range base {
		if n == failed {
			continue
		}
		if derived[id] != n {
			movedUnnecessarily++
		}
	}
	if movedUnnecessarily != 0 {
		t.Errorf("%d replicas moved despite their node being healthy", movedUnnecessarily)
	}
}

func strategyFixture(t *testing.T, f int) *Strategy {
	t.Helper()
	g := flow.Avionics(25 * sim.Millisecond)
	topo := network.FullMesh(6, 20_000_000, 50*sim.Microsecond)
	opts := DefaultOptions(f, 500*sim.Millisecond)
	s, err := Build(g, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildStrategyF1(t *testing.T) {
	s := strategyFixture(t, 1)
	// 1 + 6 plans.
	if len(s.Plans) != 7 {
		t.Fatalf("plans = %d, want 7", len(s.Plans))
	}
	for key, p := range s.Plans {
		if err := VerifyAssignment(p.Aug, p.Assign, p.Faults); err != nil {
			t.Errorf("mode %q: %v", key, err)
		}
		if err := p.Table.VerifySanity(p.Aug); err != nil {
			t.Errorf("mode %q: %v", key, err)
		}
	}
	if s.RNeeded <= 0 {
		t.Error("RNeeded not derived")
	}
	if !s.RFeasible() {
		t.Errorf("avionics strategy infeasible: needs %v", s.RNeeded)
	}
	if !strings.Contains(s.Summary(), "strategy: 7 plans") {
		t.Error("summary unhelpful")
	}
}

func TestBuildStrategyF2HasAllModes(t *testing.T) {
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritB)
	topo := network.FullMesh(7, 20_000_000, 50*sim.Microsecond)
	s, err := Build(g, topo, DefaultOptions(2, sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 7 + 21 = 29.
	if len(s.Plans) != 29 {
		t.Fatalf("plans = %d, want 29", len(s.Plans))
	}
	// Transitions exist for every non-empty mode.
	if len(s.Trans) != 28 {
		t.Fatalf("transitions = %d, want 28", len(s.Trans))
	}
}

func TestShedOnDegradedMode(t *testing.T) {
	// Avionics on 4 slowish nodes: with 1 failure, only 3 nodes remain;
	// the D-criticality IFE should be shed before anything critical.
	g := flow.Avionics(25 * sim.Millisecond)
	topo := network.FullMesh(4, 20_000_000, 50*sim.Microsecond)
	opts := DefaultOptions(1, 500*sim.Millisecond)
	s, err := Build(g, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Plans[""]
	degraded := s.Plans["0"]
	if len(degraded.ShedSinks) <= len(base.ShedSinks) {
		t.Errorf("degraded mode shed %v, base shed %v — expected more shedding with fewer nodes",
			degraded.ShedSinks, base.ShedSinks)
	}
	// Whatever was shed, criticality A must survive.
	for _, shed := range degraded.ShedSinks {
		if g.Tasks[shed].Crit == flow.CritA {
			t.Errorf("shed a criticality-A sink: %v", shed)
		}
	}
	if !degraded.RunsTask("elevator") {
		t.Error("flight control lost in degraded mode")
	}
}

func TestPlanForFallback(t *testing.T) {
	s := strategyFixture(t, 1)
	// Exact.
	if p := s.PlanFor(NewFaultSet(2)); p == nil || p.Key() != "2" {
		t.Error("exact lookup failed")
	}
	// Beyond F: falls back to a covered subset.
	p := s.PlanFor(NewFaultSet(2, 4))
	if p == nil {
		t.Fatal("no fallback plan")
	}
	if p.Faults.Len() != 1 {
		t.Errorf("fallback plan covers %v, want a single-fault subset", p.Faults)
	}
	// Empty set.
	if s.PlanFor(NewFaultSet()).Key() != "" {
		t.Error("empty lookup failed")
	}
}

func TestMinimalDiffBeatsNaive(t *testing.T) {
	g := flow.Avionics(25 * sim.Millisecond)
	topo := network.FullMesh(6, 20_000_000, 50*sim.Microsecond)

	optMin := DefaultOptions(1, 500*sim.Millisecond)
	sMin, err := Build(g, topo, optMin)
	if err != nil {
		t.Fatal(err)
	}
	optNaive := optMin
	optNaive.MinimalDiff = false
	sNaive, err := Build(g, topo, optNaive)
	if err != nil {
		t.Fatal(err)
	}
	var minMoved, naiveMoved int
	for k := range sMin.Trans {
		minMoved += len(sMin.Trans[k].Moved)
		naiveMoved += len(sNaive.Trans[k].Moved)
	}
	if minMoved >= naiveMoved {
		t.Errorf("minimal-diff moved %d tasks, naive moved %d — heuristic not helping",
			minMoved, naiveMoved)
	}
}

func TestTransitionOnlyMovesFromFailedNode(t *testing.T) {
	s := strategyFixture(t, 1)
	base := s.Plans[""]
	for n := 0; n < 6; n++ {
		key := NewFaultSet(network.NodeID(n)).Key()
		p := s.Plans[key]
		moved := base.Assign.Diff(p.Assign)
		for _, id := range moved {
			if base.Assign[id] != network.NodeID(n) {
				t.Errorf("mode %s: %q moved from healthy node %d", key, id, base.Assign[id])
			}
		}
	}
}

func TestStrategyBoundsPositive(t *testing.T) {
	s := strategyFixture(t, 1)
	if s.DetectBound <= 0 || s.DistributeBound <= 0 || s.Delta <= 0 {
		t.Errorf("bounds not derived: detect=%v distribute=%v delta=%v",
			s.DetectBound, s.DistributeBound, s.Delta)
	}
	if s.RNeeded < s.DetectBound+s.Delta {
		t.Error("RNeeded inconsistent")
	}
}

func TestBuildRejectsInvalidWorkload(t *testing.T) {
	g := flow.NewGraph("bad", 0)
	topo := network.FullMesh(3, 1_000_000, 0)
	if _, err := Build(g, topo, DefaultOptions(1, sim.Second)); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestBuildFailsOnTinyTopology(t *testing.T) {
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	topo := network.Line(2, 1_000_000, 0) // 3 source replicas can't fit
	if _, err := Build(g, topo, DefaultOptions(1, sim.Second)); err == nil {
		t.Fatal("expected failure with too few nodes")
	}
}

func TestPruneRemovesExclusiveSupport(t *testing.T) {
	g := flow.Avionics(25 * sim.Millisecond)
	pruned := prune(g, []flow.TaskID{"cabin"})
	if pruned == nil {
		t.Fatal("prune removed everything")
	}
	// media and ife.decode serve only cabin.
	if _, ok := pruned.Tasks["media"]; ok {
		t.Error("media survived shedding of cabin")
	}
	if _, ok := pruned.Tasks["ife.decode"]; ok {
		t.Error("ife.decode survived shedding of cabin")
	}
	// gyro serves elevator too; must survive.
	if _, ok := pruned.Tasks["gyro"]; !ok {
		t.Error("gyro wrongly pruned")
	}
	if err := pruned.Validate(); err != nil {
		t.Fatalf("pruned graph invalid: %v", err)
	}
}

func TestNextShedSinkOrder(t *testing.T) {
	g := flow.Avionics(25 * sim.Millisecond)
	first, ok := nextShedSink(g, nil)
	if !ok || first != "cabin" {
		t.Errorf("first shed = %v, want cabin (criticality D)", first)
	}
	second, ok := nextShedSink(g, []flow.TaskID{"cabin"})
	if !ok || second != "display" {
		t.Errorf("second shed = %v, want display (criticality C)", second)
	}
}

func BenchmarkBuildStrategyAvionicsF1(b *testing.B) {
	g := flow.Avionics(25 * sim.Millisecond)
	topo := network.FullMesh(6, 20_000_000, 50*sim.Microsecond)
	opts := DefaultOptions(1, 500*sim.Millisecond)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, topo, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEnumerateFaultSetsOver(t *testing.T) {
	members := []network.NodeID{5, 2, 9, 2} // unsorted, duplicated on purpose
	sets := EnumerateFaultSetsOver(members, 2)
	want := []string{"", "2", "5", "9", "2,5", "2,9", "5,9"}
	if len(sets) != len(want) {
		t.Fatalf("got %d sets, want %d: %v", len(sets), len(want), sets)
	}
	for i, fs := range sets {
		if fs.Key() != want[i] {
			t.Fatalf("set %d = %q, want %q (full: %v)", i, fs.Key(), want[i], sets)
		}
	}
	// Over the full universe it matches EnumerateFaultSets exactly.
	full := EnumerateFaultSets(5, 2)
	over := EnumerateFaultSetsOver([]network.NodeID{0, 1, 2, 3, 4}, 2)
	if len(full) != len(over) {
		t.Fatalf("full %d vs over %d", len(full), len(over))
	}
	for i := range full {
		if full[i].Key() != over[i].Key() {
			t.Fatalf("index %d: %q vs %q", i, full[i].Key(), over[i].Key())
		}
	}
}

// assignFresh is assign with the grouping and scratch built for this call
// alone: the reference a Synth's reused grouping and buffers must match.
func assignFresh(aug *flow.Graph, topo *network.Topology, o assignOptions) (Assignment, error) {
	return assign(aug, groupReplicas(aug), topo, o, &assignScratch{})
}

// TestSynthAssignMatchesFreshScratch: one Synth builds plans for
// interleaved shed sets (so different augmented graphs), fault sets and
// parents, and every placement equals assign run with a fresh grouping
// and fresh buffers — stale scratch or a grouping kept from another
// graph would show here.
func TestSynthAssignMatchesFreshScratch(t *testing.T) {
	g := flow.Avionics(25 * sim.Millisecond)
	topo := network.FullMesh(8, 20_000_000, 50*sim.Microsecond)
	syn := NewSynth(g, topo, DefaultOptions(2, 500*sim.Millisecond))
	sheds := [][]flow.TaskID{nil, {"cabin"}, {"cabin", "display"}, {"cabin"}, nil, {"cabin", "display"}}
	faults := []FaultSet{NewFaultSet(), NewFaultSet(3), NewFaultSet(0, 5), NewFaultSet(1), NewFaultSet(2, 4), NewFaultSet()}
	var prev *Plan
	for round := 0; round < 3; round++ {
		for i, shed := range sheds {
			fs := faults[(i+round)%len(faults)]
			var parent Assignment
			if prev != nil && (i+round)%2 == 1 {
				parent = prev.Assign
			}
			p, err := syn.buildFrom(fs, parent, shed)
			if err != nil {
				t.Fatalf("round %d shed %v faults %v: %v", round, shed, fs, err)
			}
			want, err := assignFresh(p.Aug, topo, assignOptions{faults: fs, parent: parent, locality: true})
			if err != nil {
				t.Fatalf("fresh assign, shed %v faults %v: %v", p.ShedSinks, fs, err)
			}
			if len(want) != len(p.Assign) {
				t.Fatalf("shed %v faults %v: %d replicas placed, fresh scratch places %d",
					p.ShedSinks, fs, len(p.Assign), len(want))
			}
			for id, n := range want {
				if p.Assign[id] != n {
					t.Fatalf("shed %v faults %v: %s on node %d, fresh scratch puts it on %d",
						p.ShedSinks, fs, id, p.Assign[id], n)
				}
			}
			prev = p
		}
	}
	if len(syn.augs) < 3 {
		t.Fatalf("only %d augmented graphs memoized; the interleaving needs 3", len(syn.augs))
	}
}

// TestPlannerAllocPins pins what one warm mode build allocates (Chain(3)
// on a full mesh of 8, f = 1): the graphs and grouping are memoized and
// assign's and sched.Build's scratch reused, so only the Plan, its
// Assignment and its sched.Table remain. Measured 10, with or without
// the race detector (17 while Build's scratch sat in a sync.Pool, 36
// with a grouping and buffers per call); the pin allows 3.
func TestPlannerAllocPins(t *testing.T) {
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	topo := network.FullMesh(8, 20_000_000, 50*sim.Microsecond)
	syn := NewSynth(g, topo, DefaultOptions(1, sim.Never))
	fs := NewFaultSet(3)
	parent, err := syn.BuildPlan(NewFaultSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const limit = 13.0
	got := testing.AllocsPerRun(50, func() {
		if _, err := syn.BuildPlan(fs, parent.Assign); err != nil {
			t.Fatal(err)
		}
	})
	if got > limit {
		t.Errorf("warm Synth.BuildPlan allocates %.0f, want <= %.0f", got, limit)
	}
}
