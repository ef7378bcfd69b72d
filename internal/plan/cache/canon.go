// Package cache implements the incremental recovery-plan engine: a
// canonicalizing, sharded, concurrency-safe memo of solved plans plus a
// delta-planner front end (see Engine).
//
// The paper's bounded-recovery argument assumes a valid plan exists for
// every anticipated fault pattern *before* the pattern manifests; as
// topologies and fault bounds grow, plan synthesis — not execution —
// becomes the scaling bottleneck. Most fault sets are symmetric variants
// or single-fault deltas of patterns the planner has already solved, so
// the engine exploits that structure instead of recomputing: fault sets
// are canonicalized up to topology symmetry (this file), solved plans are
// memoized under content-addressed keys (cache.go), and new plans are
// repaired from their canonical predecessor instead of re-running full
// assignment (engine.go, plan.Synth.DeltaPlan).
package cache

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"

	"btr/internal/network"
	"btr/internal/plan"
)

// searchBudget bounds the total backtracking steps one Canonicalize call
// may spend across all candidate images. Exhausting it falls back to the
// exact (symmetry-free) key, which is always sound — it only costs cache
// sharing, never correctness.
const searchBudget = 200_000

// Canon is the result of canonicalizing one fault set.
type Canon struct {
	// Key is the canonical cache key: "c:<rep>" for a genuine canonical
	// representative, "x:<fs>" when the search gave up (distinct
	// namespaces, so a budget fallback can never collide with a real
	// orbit key).
	Key string
	// Rep is the canonical representative fault set (== the input for
	// exact fallbacks and orbit minima).
	Rep plan.FaultSet
	// FromRep maps a representative-plan node to the corresponding node
	// for the queried fault set (the inverse automorphism); nil means
	// identity. Shared across callers — treat as immutable.
	FromRep []network.NodeID
	// Exact reports a budget fallback (no symmetry reduction applied).
	Exact bool
}

// Symmetry canonicalizes fault sets up to the automorphism group of one
// topology. Automorphisms must preserve adjacency *and* link attributes
// (bandwidth, propagation delay): only then is a relabeled plan
// timing-identical to the original (see plan.Plan.Relabel). All search
// and refinement order is sorted, so canonical keys are deterministic.
// A Symmetry is safe for concurrent use; results are memoized per fault
// set.
type Symmetry struct {
	topo *network.Topology
	n    int
	// lc holds link equivalence classes: lc[a*n+b] is 0 for "no link",
	// otherwise 1+index of the link's (bandwidth, prop) class. Two node
	// pairs relate identically iff their lc entries are equal.
	lc   []int32
	base []int // attribute-aware Weisfeiler–Leman colors, stable partition

	memoMu sync.RWMutex
	memo   map[string]Canon
}

// NewSymmetry analyzes the topology's symmetry structure: iterated color
// refinement over (degree, incident link attributes, neighbor colors)
// until the partition stabilizes. The refined colors are automorphism
// invariants; they prune the exact search but never decide it — every
// returned mapping is verified edge-by-edge.
func NewSymmetry(topo *network.Topology) *Symmetry {
	s := &Symmetry{
		topo: topo,
		n:    topo.N,
		lc:   make([]int32, topo.N*topo.N),
		memo: map[string]Canon{},
	}
	type attr struct {
		bw   int64
		prop int64
	}
	classes := map[attr]int32{}
	for _, l := range topo.Links {
		a := attr{l.Bandwidth, int64(l.Prop)}
		cls, ok := classes[a]
		if !ok {
			cls = int32(len(classes) + 1)
			classes[a] = cls
		}
		s.lc[int(l.A)*s.n+int(l.B)] = cls
		s.lc[int(l.B)*s.n+int(l.A)] = cls
	}
	s.base, _ = s.refinePair(nil, nil)
	return s
}

// linkClass returns the equivalence class of the (possibly absent) link
// between two nodes; equal classes mean "same adjacency and same link
// attributes".
func (s *Symmetry) linkClass(a, b network.NodeID) int32 {
	return s.lc[int(a)*s.n+int(b)]
}

// refinePair refines two markings of the same topology in lockstep
// through a shared signature table, so the returned color IDs are
// directly comparable between the two markings; cb is meaningless when
// marksB is nil. Signatures are byte-encoded (own color, then the
// sorted multiset of (neighbor color, link class) pairs) — this runs in
// the engine's cold path, so no fmt in sight.
func (s *Symmetry) refinePair(marksA, marksB []bool) (ca, cb []int) {
	mark := func(m []bool, i int) uint32 {
		if m != nil && m[i] {
			return 1
		}
		return 0
	}
	ca = make([]int, s.n)
	cb = make([]int, s.n)
	pair := marksB != nil

	ids := map[string]int{}
	var buf []byte
	intern := func(b []byte) int {
		if v, ok := ids[string(b)]; ok {
			return v
		}
		v := len(ids)
		ids[string(b)] = v
		return v
	}
	u32 := func(b []byte, v uint32) []byte {
		return binary.LittleEndian.AppendUint32(b, v)
	}

	baseOf := func(i int) uint32 {
		if s.base != nil {
			return uint32(s.base[i])
		}
		return 0
	}
	for i := 0; i < s.n; i++ {
		buf = u32(buf[:0], baseOf(i))
		buf = u32(buf, mark(marksA, i))
		ca[i] = intern(buf)
	}
	if pair {
		for i := 0; i < s.n; i++ {
			buf = u32(buf[:0], baseOf(i))
			buf = u32(buf, mark(marksB, i))
			cb[i] = intern(buf)
		}
	}

	var pairs []uint64 // (neighbor color << 32) | link class, sorted
	sig := func(c []int, i int) []byte {
		pairs = pairs[:0]
		for _, nb := range s.topo.Neighbors(network.NodeID(i)) {
			pairs = append(pairs, uint64(c[nb])<<32|uint64(uint32(s.linkClass(network.NodeID(i), nb))))
		}
		slices.Sort(pairs)
		buf = u32(buf[:0], uint32(c[i]))
		for _, p := range pairs {
			buf = binary.LittleEndian.AppendUint64(buf, p)
		}
		return buf
	}
	for round := 0; round < s.n; round++ {
		ids = map[string]int{}
		na := make([]int, s.n)
		nb := make([]int, s.n)
		for i := 0; i < s.n; i++ {
			na[i] = intern(sig(ca, i))
		}
		if pair {
			for i := 0; i < s.n; i++ {
				nb[i] = intern(sig(cb, i))
			}
		}
		if classCount(na)+classCount(nb) == classCount(ca)+classCount(cb) {
			return na, nb
		}
		ca = na
		if pair {
			cb = nb
		}
	}
	if !pair {
		cb = nil
	}
	return ca, cb
}

func classCount(c []int) int {
	seen := map[int]bool{}
	for _, v := range c {
		seen[v] = true
	}
	return len(seen)
}

// Canonicalize returns the canonical form of fs: the lexicographically
// smallest image of fs under the topology's (attribute-preserving)
// automorphism group, together with the inverse automorphism needed to
// relabel a plan solved for the representative back to fs. Soundness
// contract: two fault sets receive the same "c:" key only if a verified
// automorphism maps one onto the other — in which case their plans have
// identical recovery-time bounds (plan.Plan.Relabel preserves every
// offset in the schedule table). Results are memoized.
func (s *Symmetry) Canonicalize(fs plan.FaultSet) Canon {
	if fs.Len() == 0 {
		return Canon{Key: "c:", Rep: fs}
	}
	memoKey := fs.Key()
	s.memoMu.RLock()
	c, ok := s.memo[memoKey]
	s.memoMu.RUnlock()
	if ok {
		return c
	}
	c = s.canonicalize(fs)
	s.memoMu.Lock()
	s.memo[memoKey] = c
	s.memoMu.Unlock()
	return c
}

func (s *Symmetry) canonicalize(fs plan.FaultSet) Canon {
	k := fs.Len()
	budget := searchBudget
	src := fs.Nodes()
	marksA := make([]bool, s.n)
	for _, v := range src {
		if int(v) >= s.n {
			// Out-of-range fault sets (defensive): exact key only.
			return s.exact(fs)
		}
		marksA[v] = true
	}
	wantBase := s.colorMultiset(s.base, src)

	comb := make([]network.NodeID, k)
	for i := range comb {
		comb[i] = network.NodeID(i)
	}
	for {
		if s.colorMultiset(s.base, comb) == wantBase {
			if perm, ok := s.findAutomorphism(marksA, comb, &budget); ok {
				rep := plan.NewFaultSet(comb...)
				c := Canon{Key: "c:" + rep.Key(), Rep: rep}
				if !isIdentity(perm) {
					c.FromRep = invert(perm)
				}
				return c
			}
			if budget <= 0 {
				return s.exact(fs)
			}
		}
		if !nextCombination(comb, s.n) || less(src, comb) {
			break
		}
	}
	// The identity candidate (comb == fs) either matched above or blew
	// the budget; fall back to the exact key.
	return s.exact(fs)
}

func (s *Symmetry) exact(fs plan.FaultSet) Canon {
	return Canon{Key: "x:" + fs.Key(), Rep: fs, Exact: true}
}

// colorMultiset encodes the sorted color multiset of a node subset.
func (s *Symmetry) colorMultiset(colors []int, nodes []network.NodeID) string {
	cs := make([]int, len(nodes))
	for i, v := range nodes {
		cs[i] = colors[v]
	}
	slices.Sort(cs)
	buf := make([]byte, 0, 4*len(cs))
	for _, c := range cs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	return string(buf)
}

// findAutomorphism searches for a full automorphism mapping the marked
// source nodes (marksA) onto the target set, extending to all nodes.
// Every returned mapping is verified pairwise (adjacency + link
// attributes), so refinement pruning cannot compromise soundness.
func (s *Symmetry) findAutomorphism(marksA []bool, target []network.NodeID, budget *int) ([]network.NodeID, bool) {
	marksB := make([]bool, s.n)
	for _, v := range target {
		marksB[v] = true
	}
	ca, cb := s.refinePair(marksA, marksB)
	if s.colorMultiset(ca, allNodes(s.n)) != s.colorMultiset(cb, allNodes(s.n)) {
		return nil, false
	}
	// Process marked sources first (ascending), then the rest by
	// (refined class size, color, id): rare classes bind early.
	classSize := map[int]int{}
	for _, c := range ca {
		classSize[c]++
	}
	var order []network.NodeID
	for i := 0; i < s.n; i++ {
		if marksA[i] {
			order = append(order, network.NodeID(i))
		}
	}
	var rest []network.NodeID
	for i := 0; i < s.n; i++ {
		if !marksA[i] {
			rest = append(rest, network.NodeID(i))
		}
	}
	slices.SortStableFunc(rest, func(a, b network.NodeID) int {
		if classSize[ca[a]] != classSize[ca[b]] {
			return cmp.Compare(classSize[ca[a]], classSize[ca[b]])
		}
		if ca[a] != ca[b] {
			return cmp.Compare(ca[a], ca[b])
		}
		return cmp.Compare(a, b)
	})
	order = append(order, rest...)

	perm := make([]network.NodeID, s.n)
	used := make([]bool, s.n)
	for i := range perm {
		perm[i] = -1
	}
	mapped := make([]network.NodeID, 0, s.n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(order) {
			return true
		}
		v := order[i]
		for w := 0; w < s.n; w++ {
			*budget--
			if *budget <= 0 {
				return false
			}
			if used[w] || cb[w] != ca[v] {
				continue
			}
			ok := true
			for _, u := range mapped {
				if s.linkClass(v, u) != s.linkClass(network.NodeID(w), perm[u]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			perm[v] = network.NodeID(w)
			used[w] = true
			mapped = append(mapped, v)
			if rec(i + 1) {
				return true
			}
			mapped = mapped[:len(mapped)-1]
			used[w] = false
			perm[v] = -1
			if *budget <= 0 {
				return false
			}
		}
		return false
	}
	if !rec(0) {
		return nil, false
	}
	return perm, true
}

func allNodes(n int) []network.NodeID {
	out := make([]network.NodeID, n)
	for i := range out {
		out[i] = network.NodeID(i)
	}
	return out
}

func isIdentity(perm []network.NodeID) bool {
	for i, v := range perm {
		if int(v) != i {
			return false
		}
	}
	return true
}

func invert(perm []network.NodeID) []network.NodeID {
	inv := make([]network.NodeID, len(perm))
	for i, v := range perm {
		inv[v] = network.NodeID(i)
	}
	return inv
}

// nextCombination advances a sorted k-combination over [0, n) to its
// lexicographic successor; false means the last combination was reached.
func nextCombination(c []network.NodeID, n int) bool {
	k := len(c)
	for i := k - 1; i >= 0; i-- {
		if int(c[i]) < n-(k-i) {
			c[i]++
			for j := i + 1; j < k; j++ {
				c[j] = c[j-1] + 1
			}
			return true
		}
	}
	return false
}

// less compares two sorted node slices lexicographically.
func less(a, b []network.NodeID) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
