package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

const (
	testBW   = 20_000_000
	testProp = 50 * sim.Microsecond
)

// orbitKeys canonicalizes every fault set of size <= f and returns the
// distinct canonical keys, sorted.
func orbitKeys(t *testing.T, topo *network.Topology, f int) []string {
	t.Helper()
	sym := NewSymmetry(topo)
	seen := map[string]bool{}
	for _, fs := range plan.EnumerateFaultSets(topo.N, f) {
		c := sym.Canonicalize(fs)
		if c.Exact {
			t.Fatalf("budget fallback for %v on %d-node topology", fs, topo.N)
		}
		seen[c.Key] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestCanonicalOrbitsKnownFamilies(t *testing.T) {
	cases := []struct {
		name string
		topo *network.Topology
		f    int
		want []string
	}{
		// Full mesh: every node equivalent, every pair equivalent.
		{"mesh6-f2", network.FullMesh(6, testBW, testProp), 2,
			[]string{"c:", "c:0", "c:0,1"}},
		// Star: the hub is its own orbit; spokes are interchangeable.
		{"star5-f2", network.Star(5, testBW, testProp), 2,
			[]string{"c:", "c:0", "c:0,1", "c:1", "c:1,2"}},
		// Ring: rotations + reflections; pair orbits are indexed by hop
		// distance 1..n/2.
		{"ring8-f2", network.Ring(8, testBW, testProp), 2,
			[]string{"c:", "c:0", "c:0,1", "c:0,2", "c:0,3", "c:0,4"}},
		// 3x3 grid: corners, edge-midpoints, center.
		{"grid3x3-f1", network.Grid(3, 3, testBW, testProp), 1,
			[]string{"c:", "c:0", "c:1", "c:4"}},
		// Dual bus: the two guardians are symmetric, the leaves are.
		{"dualbus6-f1", network.DualBus(6, testBW, testProp), 1,
			[]string{"c:", "c:0", "c:2"}},
	}
	for _, tc := range cases {
		got := orbitKeys(t, tc.topo, tc.f)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: orbits = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCanonicalizeLinkAttributesBreakSymmetry: nodes that are
// graph-symmetric but sit on links with different attributes must not
// share an orbit — a relabeled plan would otherwise have wrong timing.
func TestCanonicalizeLinkAttributesBreakSymmetry(t *testing.T) {
	// A 4-ring where one link is slower: the reflection symmetry across
	// that link survives, full rotation does not.
	topo := network.NewTopology(4, []network.Link{
		{A: 0, B: 1, Bandwidth: testBW / 2, Prop: testProp},
		{A: 1, B: 2, Bandwidth: testBW, Prop: testProp},
		{A: 2, B: 3, Bandwidth: testBW, Prop: testProp},
		{A: 3, B: 0, Bandwidth: testBW, Prop: testProp},
	})
	sym := NewSymmetry(topo)
	// 0 and 1 touch the slow link, 2 and 3 do not.
	k0 := sym.Canonicalize(plan.NewFaultSet(0)).Key
	k1 := sym.Canonicalize(plan.NewFaultSet(1)).Key
	k2 := sym.Canonicalize(plan.NewFaultSet(2)).Key
	k3 := sym.Canonicalize(plan.NewFaultSet(3)).Key
	if k0 != k1 || k2 != k3 {
		t.Errorf("reflection orbits broken: %s %s %s %s", k0, k1, k2, k3)
	}
	if k0 == k2 {
		t.Errorf("slow-link endpoints share an orbit with fast-link nodes: %s", k0)
	}
}

// verifyAutomorphism checks, edge by edge over all node pairs, that perm
// preserves adjacency and link attributes — the independent re-check of
// what findAutomorphism claims.
func verifyAutomorphism(t *testing.T, topo *network.Topology, perm []network.NodeID) {
	t.Helper()
	seen := make([]bool, topo.N)
	for _, v := range perm {
		if int(v) < 0 || int(v) >= topo.N || seen[v] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[v] = true
	}
	for a := 0; a < topo.N; a++ {
		for b := a + 1; b < topo.N; b++ {
			la, oka := topo.LinkBetween(network.NodeID(a), network.NodeID(b))
			lb, okb := topo.LinkBetween(perm[a], perm[b])
			if oka != okb {
				t.Fatalf("perm %v does not preserve adjacency at (%d,%d)", perm, a, b)
			}
			if oka && (la.Bandwidth != lb.Bandwidth || la.Prop != lb.Prop) {
				t.Fatalf("perm %v does not preserve link attributes at (%d,%d)", perm, a, b)
			}
		}
	}
}

// quickTopology derives a deterministic topology from a seed, spanning
// the generator families plus random connected graphs.
func quickTopology(seed uint64) *network.Topology {
	rng := sim.NewRNG(seed)
	n := 4 + rng.Intn(6) // 4..9
	switch rng.Intn(6) {
	case 0:
		return network.FullMesh(n, testBW, testProp)
	case 1:
		return network.Ring(maxInt(n, 3), testBW, testProp)
	case 2:
		return network.Star(n, testBW, testProp)
	case 3:
		return network.DualBus(maxInt(n, 3), testBW, testProp)
	case 4:
		return network.Grid(2+rng.Intn(2), 2+rng.Intn(2), testBW, testProp)
	default:
		return network.RandomConnected(rng, n, 0.3, testBW, testProp)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestQuickCanonicalizationSound is the property test: for random
// topologies and random fault-set pairs, (a) every returned automorphism
// verifies independently, (b) canonicalization is idempotent and
// minimal, and (c) any two fault sets with the same canonical key yield
// engine plans with identical recovery-time bounds — same makespan, same
// sorted finish-offset profile, same shed set, same peak utilization.
func TestQuickCanonicalizationSound(t *testing.T) {
	check := func(seed uint64) bool {
		topo := quickTopology(seed)
		rng := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
		sym := NewSymmetry(topo)
		k := 1 + rng.Intn(2)
		pick := func() plan.FaultSet {
			var nodes []network.NodeID
			for _, i := range rng.Perm(topo.N)[:k] {
				nodes = append(nodes, network.NodeID(i))
			}
			return plan.NewFaultSet(nodes...)
		}
		fs1, fs2 := pick(), pick()
		c1, c2 := sym.Canonicalize(fs1), sym.Canonicalize(fs2)
		for _, pair := range []struct {
			fs plan.FaultSet
			c  Canon
		}{{fs1, c1}, {fs2, c2}} {
			if pair.c.Exact {
				continue // budget fallback: no symmetry claim made
			}
			if pair.c.FromRep != nil {
				verifyAutomorphism(t, topo, pair.c.FromRep)
			}
			if less(pair.fs.Nodes(), pair.c.Rep.Nodes()) {
				t.Errorf("rep %v not minimal for %v", pair.c.Rep, pair.fs)
			}
			again := sym.Canonicalize(pair.c.Rep)
			if again.Key != pair.c.Key || again.FromRep != nil {
				t.Errorf("canonicalize not idempotent: %v -> %v -> %v", pair.c.Rep, pair.c.Key, again.Key)
			}
		}
		if c1.Key != c2.Key || c1.Exact || c2.Exact {
			return true
		}
		// Same orbit: engine plans must be timing-identical.
		g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
		eng := NewEngine(g, topo, plan.DefaultOptions(k, 500*sim.Millisecond), nil)
		p1, err1 := eng.PlanFor(fs1)
		p2, err2 := eng.PlanFor(fs2)
		if (err1 == nil) != (err2 == nil) {
			t.Errorf("seed %d: feasibility differs within orbit %s: %v vs %v", seed, c1.Key, err1, err2)
			return false
		}
		if err1 != nil {
			return true // both unschedulable: equal bounds, vacuously
		}
		if !p1.Faults.Equal(fs1) || !p2.Faults.Equal(fs2) {
			t.Errorf("seed %d: plan fault sets mismatch", seed)
		}
		if err := plan.VerifyAssignment(p1.Aug, p1.Assign, fs1); err != nil {
			t.Errorf("seed %d: plan for %v invalid: %v", seed, fs1, err)
		}
		if err := plan.VerifyAssignment(p2.Aug, p2.Assign, fs2); err != nil {
			t.Errorf("seed %d: plan for %v invalid: %v", seed, fs2, err)
		}
		if err := p2.Table.VerifySanity(p2.Aug); err != nil {
			t.Errorf("seed %d: relabeled table unsound: %v", seed, err)
		}
		if a, b := boundsProfile(p1), boundsProfile(p2); a != b {
			t.Errorf("seed %d: bounds differ within orbit %s:\n%s\nvs\n%s", seed, c1.Key, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// boundsProfile renders everything recovery-time-relevant about a plan:
// schedule makespan, the sorted finish-offset profile, shed sinks, and
// peak node utilization.
func boundsProfile(p *plan.Plan) string {
	finishes := make([]sim.Time, 0, len(p.Aug.Tasks))
	for _, id := range p.Aug.TaskIDs() {
		finishes = append(finishes, p.Table.Finish(id))
	}
	sort.Slice(finishes, func(i, j int) bool { return finishes[i] < finishes[j] })
	_, maxU := p.Table.MaxUtilization()
	return fmt.Sprintf("makespan=%v finishes=%v shed=%v maxU=%.6f",
		p.Table.Makespan(), finishes, p.ShedSinks, maxU)
}

// pinnedCanonDigest is the SHA-256 of every canonicalization
// TestCanonicalizeMatchesPinnedDigest enumerates, captured from the
// map-and-string search this package used before its scratch rewrite.
// Color numbering, candidate order and budget accounting all feed the
// found automorphism, so any drift in them moves FromRep and this sum.
const pinnedCanonDigest = "e92ab7e2a38b9eb7d60bcd62cdf7fa32b60ee5aeb96d8f0787d6c146feacca84"

// TestCanonicalizeMatchesPinnedDigest hashes Key, Rep, FromRep and Exact
// for every fault set of size 1 to f+1 on the C4 sweep's topologies and
// on the slow-link ring of TestCanonicalizeLinkAttributesBreakSymmetry.
func TestCanonicalizeMatchesPinnedDigest(t *testing.T) {
	cases := []struct {
		topo *network.Topology
		f    int
	}{
		{network.FullMesh(8, testBW, testProp), 2},
		{network.FullMesh(12, testBW, testProp), 2},
		{network.Ring(8, testBW, testProp), 1},
		{network.Ring(10, testBW, testProp), 2},
		{network.Grid(3, 3, testBW, testProp), 2},
		{network.DualBus(8, testBW, testProp), 2},
		{network.Star(8, testBW, testProp), 1},
		{network.NewTopology(4, []network.Link{
			{A: 0, B: 1, Bandwidth: testBW / 2, Prop: testProp},
			{A: 1, B: 2, Bandwidth: testBW, Prop: testProp},
			{A: 2, B: 3, Bandwidth: testBW, Prop: testProp},
			{A: 3, B: 0, Bandwidth: testBW, Prop: testProp},
		}), 2},
	}
	h := sha256.New()
	sets, exact := 0, 0
	for _, tc := range cases {
		sym := NewSymmetry(tc.topo)
		for _, fs := range plan.EnumerateFaultSets(tc.topo.N, tc.f+1) {
			if fs.Len() == 0 {
				continue
			}
			c := sym.Canonicalize(fs)
			fmt.Fprintf(h, "%d|%s|%s|%s|%v|%v\n", tc.topo.N, fs.Key(), c.Key, c.Rep.Key(), c.FromRep, c.Exact)
			sets++
			if c.Exact {
				exact++
			}
		}
	}
	if exact != 0 {
		t.Logf("%d of %d fault sets fell back to the exact key", exact, sets)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedCanonDigest {
		t.Fatalf("canonicalization digest over %d fault sets = %s, want %s", sets, got, pinnedCanonDigest)
	}
}

// TestCanonicalizeAllocs pins what one Canonicalize costs in heap
// objects. A cold call allocates the memo key (fs.Key), its one scratch
// and the result: Key (the "c:" concatenation plus rep.Key's string),
// Rep and FromRep when the mapping is not the identity. A memo hit
// allocates only the memo key.
func TestCanonicalizeAllocs(t *testing.T) {
	const coldPin, hitPin = 6, 1
	for _, tc := range []struct {
		name string
		topo *network.Topology
		f    int
	}{
		{"full-mesh/12", network.FullMesh(12, testBW, testProp), 2},
		{"ring/10", network.Ring(10, testBW, testProp), 2},
		{"grid-3x3", network.Grid(3, 3, testBW, testProp), 2},
	} {
		sym := NewSymmetry(tc.topo)
		for _, fs := range plan.EnumerateFaultSets(tc.topo.N, tc.f+1) {
			if fs.Len() == 0 {
				continue
			}
			cold := testing.AllocsPerRun(10, func() {
				clear(sym.memo) // keeps the map's buckets: the insert allocates nothing
				sym.Canonicalize(fs)
			})
			if cold > coldPin {
				t.Errorf("%s: cold Canonicalize(%v) allocates %.0f objects, pin %d", tc.name, fs, cold, coldPin)
			}
			if hit := testing.AllocsPerRun(10, func() { sym.Canonicalize(fs) }); hit > hitPin {
				t.Errorf("%s: memo hit Canonicalize(%v) allocates %.0f objects, pin %d", tc.name, fs, hit, hitPin)
			}
		}
	}
}
