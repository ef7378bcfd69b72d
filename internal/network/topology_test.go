package network

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"btr/internal/sim"
)

func TestLineTopology(t *testing.T) {
	topo := Line(5, 1000, sim.Millisecond)
	if !topo.Connected() {
		t.Fatal("line not connected")
	}
	if d := topo.Diameter(); d != 4 {
		t.Errorf("diameter = %d, want 4", d)
	}
	if ns := topo.Neighbors(2); len(ns) != 2 || ns[0] != 1 || ns[1] != 3 {
		t.Errorf("Neighbors(2) = %v, want [1 3]", ns)
	}
	path, ok := topo.Path(0, 4)
	if !ok || len(path) != 5 {
		t.Fatalf("Path(0,4) = %v, %v", path, ok)
	}
}

func TestRingTopology(t *testing.T) {
	topo := Ring(6, 1000, 0)
	if d := topo.Diameter(); d != 3 {
		t.Errorf("ring diameter = %d, want 3", d)
	}
	for i := 0; i < 6; i++ {
		if len(topo.Neighbors(NodeID(i))) != 2 {
			t.Errorf("ring node %d degree != 2", i)
		}
	}
}

func TestStarTopology(t *testing.T) {
	topo := Star(7, 1000, 0)
	if d := topo.Diameter(); d != 2 {
		t.Errorf("star diameter = %d, want 2", d)
	}
	if len(topo.Neighbors(0)) != 6 {
		t.Errorf("hub degree = %d, want 6", len(topo.Neighbors(0)))
	}
	path, ok := topo.Path(3, 5)
	if !ok || len(path) != 3 || path[1] != 0 {
		t.Errorf("Path(3,5) = %v, want through hub", path)
	}
}

func TestFullMeshTopology(t *testing.T) {
	topo := FullMesh(5, 1000, 0)
	if d := topo.Diameter(); d != 1 {
		t.Errorf("mesh diameter = %d, want 1", d)
	}
	if len(topo.Links) != 10 {
		t.Errorf("mesh links = %d, want 10", len(topo.Links))
	}
}

func TestGridTopology(t *testing.T) {
	topo := Grid(3, 3, 1000, 0)
	if !topo.Connected() {
		t.Fatal("grid not connected")
	}
	if d := topo.Diameter(); d != 4 {
		t.Errorf("3x3 grid diameter = %d, want 4", d)
	}
	// Corner has degree 2, center degree 4.
	if len(topo.Neighbors(0)) != 2 {
		t.Errorf("corner degree = %d, want 2", len(topo.Neighbors(0)))
	}
	if len(topo.Neighbors(4)) != 4 {
		t.Errorf("center degree = %d, want 4", len(topo.Neighbors(4)))
	}
}

func TestDualBusTopology(t *testing.T) {
	topo := DualBus(6, 1000, 0)
	// Every non-guardian node must have two node-disjoint paths to any
	// other: removing either guardian keeps it connected.
	for g := NodeID(0); g <= 1; g++ {
		path, ok := topo.PathAvoiding(2, 5, func(x NodeID) bool { return x == g })
		if !ok {
			t.Errorf("no path 2->5 avoiding guardian %d", g)
		}
		for _, v := range path {
			if v == g {
				t.Errorf("path 2->5 uses avoided guardian %d: %v", g, path)
			}
		}
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 2 + int(seed%20)
		topo := RandomConnected(rng, n, 0.1, 1000, 0)
		return topo.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPathAvoiding(t *testing.T) {
	// Ring: avoid one direction's intermediate, path must go the long way.
	topo := Ring(5, 1000, 0)
	path, ok := topo.PathAvoiding(0, 2, func(x NodeID) bool { return x == 1 })
	if !ok {
		t.Fatal("no avoiding path on ring")
	}
	want := []NodeID{0, 4, 3, 2}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestPathToSelf(t *testing.T) {
	topo := Line(3, 1000, 0)
	path, ok := topo.Path(1, 1)
	if !ok || len(path) != 1 || path[0] != 1 {
		t.Errorf("Path(1,1) = %v, %v", path, ok)
	}
}

func TestDisconnectedPath(t *testing.T) {
	topo := NewTopology(4, []Link{{0, 1, 1000, 0}, {2, 3, 1000, 0}})
	if topo.Connected() {
		t.Error("disconnected topo reported connected")
	}
	if _, ok := topo.Path(0, 3); ok {
		t.Error("found path across disconnected components")
	}
	if topo.Diameter() != -1 {
		t.Error("diameter of disconnected graph should be -1")
	}
}

func TestTopologyValidationPanics(t *testing.T) {
	cases := []struct {
		name  string
		build func()
	}{
		{"self-link", func() { NewTopology(2, []Link{{0, 0, 10, 0}}) }},
		{"out-of-range", func() { NewTopology(2, []Link{{0, 5, 10, 0}}) }},
		{"zero-bandwidth", func() { NewTopology(2, []Link{{0, 1, 0, 0}}) }},
		{"duplicate", func() { NewTopology(2, []Link{{0, 1, 10, 0}, {1, 0, 10, 0}}) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			c.build()
		})
	}
}

func TestMinBandwidthMaxProp(t *testing.T) {
	topo := NewTopology(3, []Link{
		{0, 1, 500, 2 * sim.Millisecond},
		{1, 2, 1000, 5 * sim.Millisecond},
	})
	if bw := topo.MinBandwidth(); bw != 500 {
		t.Errorf("MinBandwidth = %d, want 500", bw)
	}
	if p := topo.MaxProp(); p != 5*sim.Millisecond {
		t.Errorf("MaxProp = %v, want 5ms", p)
	}
}

func TestDeterministicPaths(t *testing.T) {
	// Same topology queried twice must yield identical paths (BFS with
	// sorted adjacency is deterministic).
	topo := Grid(4, 4, 1000, 0)
	p1, _ := topo.Path(0, 15)
	p2, _ := topo.Path(0, 15)
	if len(p1) != len(p2) {
		t.Fatal("path lengths differ")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("paths differ between identical queries")
		}
	}
}

func TestDiameterWithin(t *testing.T) {
	// Ring of 8: full diameter 4. Restrict to members {0..6} (7 dormant):
	// the induced subgraph is a line 0-1-...-6, diameter 6 — strictly
	// worse than the full ring, which is exactly why epoch bounds must
	// use the induced metric.
	ring := Ring(8, 1000, 10)
	if d := ring.Diameter(); d != 4 {
		t.Fatalf("ring-8 diameter = %d, want 4", d)
	}
	members := func(n NodeID) bool { return n != 7 }
	if d := ring.DiameterWithin(members); d != 6 {
		t.Fatalf("ring-8 minus one diameter = %d, want 6", d)
	}
	// All members: matches the plain diameter.
	if d := ring.DiameterWithin(func(NodeID) bool { return true }); d != 4 {
		t.Fatalf("all-member DiameterWithin = %d, want 4", d)
	}
	// Disconnecting membership (line missing an interior node) is -1.
	line := Line(5, 1000, 10)
	if d := line.DiameterWithin(func(n NodeID) bool { return n != 2 }); d != -1 {
		t.Fatalf("split line DiameterWithin = %d, want -1", d)
	}
	// Single member: diameter 0.
	if d := line.DiameterWithin(func(n NodeID) bool { return n == 1 }); d != 0 {
		t.Fatalf("singleton DiameterWithin = %d, want 0", d)
	}
}

func TestInducedBandwidthAndProp(t *testing.T) {
	topo := NewTopology(3, []Link{
		{0, 1, 100, 5},
		{1, 2, 10, 50}, // the slow, laggy link touches node 2
	})
	in01 := func(n NodeID) bool { return n != 2 }
	if bw := topo.MinBandwidthWithin(in01); bw != 100 {
		t.Fatalf("MinBandwidthWithin = %d, want 100", bw)
	}
	if p := topo.MaxPropWithin(in01); p != 5 {
		t.Fatalf("MaxPropWithin = %v, want 5", p)
	}
	all := func(NodeID) bool { return true }
	if bw := topo.MinBandwidthWithin(all); bw != topo.MinBandwidth() {
		t.Fatalf("all-member MinBandwidthWithin %d != MinBandwidth %d", bw, topo.MinBandwidth())
	}
	if p := topo.MaxPropWithin(all); p != topo.MaxProp() {
		t.Fatalf("all-member MaxPropWithin %v != MaxProp %v", p, topo.MaxProp())
	}
}

func TestWithDelta(t *testing.T) {
	line := Line(4, 1000, 10)
	// Close the ring: add 3-0.
	ring := line.WithDelta([]Link{{3, 0, 1000, 10}}, nil)
	if d := ring.Diameter(); d != 2 {
		t.Fatalf("delta-closed ring diameter = %d, want 2", d)
	}
	if line.Diameter() != 3 {
		t.Fatal("WithDelta mutated the original topology")
	}
	// Drop it again (order-insensitive endpoints).
	back := ring.WithDelta(nil, [][2]NodeID{{0, 3}})
	if d := back.Diameter(); d != 3 {
		t.Fatalf("delta-dropped line diameter = %d, want 3", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dropping a nonexistent link did not panic")
		}
	}()
	line.WithDelta(nil, [][2]NodeID{{0, 2}})
}

// refPath is the allocate-per-call routing the route table replaced, kept
// verbatim as the reference: an unfiltered BFS from a with sorted
// adjacency, then the parent chain from b reversed.
func refPath(t *Topology, a, b NodeID) ([]NodeID, bool) {
	if a == b {
		return []NodeID{a}, true
	}
	dist := make([]int, t.N)
	parent := make([]NodeID, t.N)
	for i := range dist {
		dist[i] = -1
		parent[i] = -1
	}
	dist[a] = 0
	queue := []NodeID{a}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range t.Neighbors(v) {
			if dist[w] != -1 {
				continue
			}
			dist[w] = dist[v] + 1
			parent[w] = v
			queue = append(queue, w)
		}
	}
	if dist[b] == -1 {
		return nil, false
	}
	path := []NodeID{b}
	for v := b; v != a; v = parent[v] {
		path = append(path, parent[v])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}

// checkRoutesAgainstReference asserts that every routing answer the table
// serves equals the reference BFS for all ordered pairs, including
// unreachable pairs and a == b, and that PathAvoiding with no filter
// agrees too.
func checkRoutesAgainstReference(t *testing.T, name string, topo *Topology) {
	t.Helper()
	diam := 0
	for a := NodeID(0); int(a) < topo.N; a++ {
		for b := NodeID(0); int(b) < topo.N; b++ {
			want, wantOK := refPath(topo, a, b)
			got, ok := topo.Path(a, b)
			if ok != wantOK || !slices.Equal(got, want) {
				t.Fatalf("%s: Path(%d,%d) = %v,%v, reference %v,%v", name, a, b, got, ok, want, wantOK)
			}
			if fresh, fok := topo.PathAvoiding(a, b, nil); fok != wantOK || !slices.Equal(fresh, want) {
				t.Fatalf("%s: PathAvoiding(%d,%d,nil) = %v,%v, reference %v,%v", name, a, b, fresh, fok, want, wantOK)
			}
			wantHops := len(want) - 1 // -1 when unreachable
			if h := topo.Hops(a, b); h != wantHops {
				t.Fatalf("%s: Hops(%d,%d) = %d, reference %d", name, a, b, h, wantHops)
			}
			next, nok := topo.NextHop(a, b)
			if wantNOK := len(want) >= 2; nok != wantNOK || (nok && next != want[1]) {
				t.Fatalf("%s: NextHop(%d,%d) = %d,%v, reference path %v", name, a, b, next, nok, want)
			}
			if !wantOK {
				diam = -1
			} else if diam >= 0 && wantHops > diam {
				diam = wantHops
			}
		}
	}
	if d := topo.Diameter(); d != diam {
		t.Fatalf("%s: Diameter = %d, reference %d", name, d, diam)
	}
}

func TestRouteTableEqualsReferenceBFS(t *testing.T) {
	rng := sim.NewRNG(17)
	topos := map[string]*Topology{
		"single":       NewTopology(1, nil),
		"line":         Line(7, 1000, 0),
		"ring":         Ring(9, 1000, 0),
		"star":         Star(6, 1000, 0),
		"mesh":         FullMesh(8, 1000, 0),
		"grid":         Grid(4, 3, 1000, 0),
		"dualbus":      DualBus(7, 1000, 0),
		"random":       RandomConnected(rng, 12, 0.2, 1000, 0),
		"disconnected": NewTopology(5, []Link{{0, 1, 1000, 0}, {2, 3, 1000, 0}}),
	}
	for name, topo := range topos {
		checkRoutesAgainstReference(t, name, topo)
	}
}

// TestRouteTableAcrossWithDeltaChains walks seeded random chains of link
// drops and adds (drops may disconnect the graph) and checks each derived
// topology against the reference, and that deriving it left its parent's
// already-filled table alone.
func TestRouteTableAcrossWithDeltaChains(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		topo := RandomConnected(rng, 10, 0.15, 1000, 0)
		for step := 0; step < 12; step++ {
			checkRoutesAgainstReference(t, "parent", topo)
			var add []Link
			var drop [][2]NodeID
			if len(topo.Links) > 0 && rng.Bool(0.6) {
				l := topo.Links[rng.Intn(len(topo.Links))]
				drop = append(drop, [2]NodeID{l.B, l.A})
			}
			a, b := NodeID(rng.Intn(topo.N)), NodeID(rng.Intn(topo.N))
			if _, linked := topo.LinkBetween(a, b); a != b && !linked {
				add = append(add, Link{a, b, 1000, 0})
			}
			next := topo.WithDelta(add, drop)
			checkRoutesAgainstReference(t, "child", next)
			checkRoutesAgainstReference(t, "parent after WithDelta", topo)
			topo = next
		}
	}
}

func TestReturnedPathAppendDoesNotCorruptTable(t *testing.T) {
	topo := Line(6, 1000, 0)
	for b := NodeID(0); b < 6; b++ {
		p, _ := topo.Path(0, b)
		_ = append(p, 99, 98, 97) // must reallocate, not spill into the next path
	}
	checkRoutesAgainstReference(t, "line after appends", topo)
}

// TestRouteTableConcurrentFirstUse has 32 goroutines hit a fresh
// topology's first Path at once (run under -race): all must see the same
// slices, and those must be the reference paths.
func TestRouteTableConcurrentFirstUse(t *testing.T) {
	for round := 0; round < 20; round++ {
		topo := Grid(5, 5, 1000, 0)
		const workers = 32
		got := make([][][]NodeID, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				paths := make([][]NodeID, topo.N)
				for b := 0; b < topo.N; b++ {
					paths[b], _ = topo.Path(3, NodeID(b))
				}
				got[w] = paths
				_ = topo.Diameter()
			}()
		}
		close(start)
		wg.Wait()
		for w := 1; w < workers; w++ {
			for b := range got[w] {
				// Same backing array, not merely equal contents: the
				// first published row is the only one ever handed out.
				if &got[w][b][0] != &got[0][b][0] || len(got[w][b]) != len(got[0][b]) {
					t.Fatalf("round %d: worker %d got a different Path(3,%d) slice than worker 0", round, w, b)
				}
			}
		}
		checkRoutesAgainstReference(t, "grid after concurrent first use", topo)
	}
}
