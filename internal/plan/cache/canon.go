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
	"math/bits"
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
// A Symmetry is safe for concurrent use: it is read-only after
// NewSymmetry except for its locked memo, and each Canonicalize call
// searches on a scratch of its own.
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
		base: make([]int, topo.N), // all zero while refinement computes it
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
	sc := s.newScratch(0)
	copy(s.base, sc.refine(s.n))
	return s
}

// scratch is one Canonicalize call's working memory, carved from a
// single allocation. Refinement runs over "virtual nodes": j < n is node
// j marked by the fault set (side A), j >= n is node j-n marked by the
// candidate image (side B), so one interning pass numbers both sides'
// colors comparably.
type scratch struct {
	s      *Symmetry
	budget int // backtracking steps left, shared by every candidate

	mark        []int // per virtual node: 1 if marked on its side
	col, nxt    []int // colors per virtual node, this round and next
	sig, off    []int // signatures: virtual node j's is sig[off[j]:off[j+1]]
	first       []int // first[id]: the first virtual node given color id
	bits        []int // bitmap of the colors one side uses
	want, tmp   []int // sorted color multisets
	size        []int // refined class size per color
	order, perm []int // binding order of the search, and its mapping
	used        []int // 1 where a node is already some node's image
	ca, cb      []int // refined colors of sides A and B
}

func (s *Symmetry) newScratch(k int) scratch {
	n, words := s.n, 0
	for i := 0; i < n; i++ {
		words += 1 + len(s.topo.Neighbors(network.NodeID(i)))
	}
	nbits := (2*n + bits.UintSize - 1) / bits.UintSize
	buf := make([]int, 2*max(words, 2*n)+1+nbits+k+17*n)
	take := func(l int) []int {
		p := buf[:l:l]
		buf = buf[l:]
		return p
	}
	return scratch{
		s: s, budget: searchBudget,
		mark: take(2 * n), col: take(2 * n), nxt: take(2 * n),
		sig: take(2 * max(words, 2*n)), off: take(2*n + 1), first: take(2 * n),
		bits: take(nbits), want: take(k), tmp: take(2 * n), size: take(2 * n),
		order: take(n), perm: take(n), used: take(n),
	}
}

// refine colors the first m virtual nodes (n: side A alone; 2n: both
// sides in lockstep) by iterated refinement and returns the colors. A
// color is the first-seen index of a signature: (base color, mark)
// initially, then (own color, sorted multiset of (neighbor color, link
// class) pairs) each round, until no side gains a class.
func (sc *scratch) refine(m int) []int {
	s, n := sc.s, sc.s.n
	sig := sc.sig[:0]
	for j := 0; j < m; j++ {
		sc.off[j] = len(sig)
		sig = append(sig, s.base[j%n], sc.mark[j])
	}
	sc.off[m] = len(sig)
	cur, nxt := sc.col[:m], sc.nxt[:m]
	sc.intern(m, cur)
	lcs := len(s.topo.Links) + 1 // pair (c, l) encodes as c*lcs + l
	for round := 0; round < n; round++ {
		sig = sig[:0]
		for j := 0; j < m; j++ {
			side, i := j-j%n, j%n
			sc.off[j] = len(sig)
			sig = append(sig, cur[j])
			at := len(sig)
			for _, nb := range s.topo.Neighbors(network.NodeID(i)) {
				sig = append(sig, cur[side+int(nb)]*lcs+int(s.lc[i*n+int(nb)]))
			}
			slices.Sort(sig[at:])
		}
		sc.off[m] = len(sig)
		sc.intern(m, nxt)
		before := sc.classes(cur[:n]) + sc.classes(cur[n:])
		cur, nxt = nxt, cur
		if sc.classes(cur[:n])+sc.classes(cur[n:]) == before {
			break
		}
	}
	return cur
}

// intern gives each of the first m virtual nodes the index of its
// signature among the distinct signatures in first-seen order.
func (sc *scratch) intern(m int, col []int) {
	ids := 0
	for j := 0; j < m; j++ {
		sj := sc.sig[sc.off[j]:sc.off[j+1]]
		id := 0
		for ; id < ids; id++ {
			f := sc.first[id]
			if slices.Equal(sc.sig[sc.off[f]:sc.off[f+1]], sj) {
				break
			}
		}
		if id == ids {
			sc.first[ids] = j
			ids++
		}
		col[j] = id
	}
}

// classes counts the distinct colors in c.
func (sc *scratch) classes(c []int) int {
	clear(sc.bits)
	k := 0
	for _, v := range c {
		w, b := v/bits.UintSize, uint(v%bits.UintSize)
		if sc.bits[w]>>b&1 == 0 {
			sc.bits[w] |= 1 << b
			k++
		}
	}
	return k
}

// sortedColors writes the sorted colors of nodes into dst.
func sortedColors(dst, colors []int, nodes []network.NodeID) []int {
	for i, v := range nodes {
		dst[i] = colors[v]
	}
	slices.Sort(dst)
	return dst
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
	c = s.canonicalize(fs, memoKey)
	s.memoMu.Lock()
	s.memo[memoKey] = c
	s.memoMu.Unlock()
	return c
}

func (s *Symmetry) canonicalize(fs plan.FaultSet, key string) Canon {
	src := fs.Nodes()
	k := len(src)
	if int(src[k-1]) >= s.n {
		// Out-of-range fault sets (defensive): exact key only.
		return exact(fs, key)
	}
	sc := s.newScratch(k)
	for _, v := range src {
		sc.mark[v] = 1
	}
	want := sortedColors(sc.want, s.base, src)

	var buf [8]network.NodeID // sets of up to 8 nodes enumerate on the stack
	comb := buf[:0]
	for i := 0; i < k; i++ {
		comb = append(comb, network.NodeID(i))
	}
	for {
		if slices.Equal(sortedColors(sc.tmp[:k], s.base, comb), want) {
			if sc.findAutomorphism(comb) {
				if fromRep := inverse(sc.perm); fromRep != nil {
					rep := plan.NewFaultSet(comb...)
					return Canon{Key: "c:" + rep.Key(), Rep: rep, FromRep: fromRep}
				}
				return Canon{Key: "c:" + key, Rep: fs}
			}
			if sc.budget <= 0 {
				return exact(fs, key)
			}
		}
		if !nextCombination(comb, s.n) || less(src, comb) {
			break
		}
	}
	// The identity candidate (comb == fs) either matched above or blew
	// the budget; fall back to the exact key.
	return exact(fs, key)
}

func exact(fs plan.FaultSet, key string) Canon {
	return Canon{Key: "x:" + key, Rep: fs, Exact: true}
}

// findAutomorphism searches for a full automorphism mapping the marked
// source nodes (side A) onto the target set, extending to all nodes;
// on success sc.perm holds it. Every mapping is verified pairwise
// (adjacency + link attributes), so refinement pruning cannot
// compromise soundness.
func (sc *scratch) findAutomorphism(target []network.NodeID) bool {
	n := sc.s.n
	clear(sc.mark[n:])
	for _, v := range target {
		sc.mark[n+int(v)] = 1
	}
	c := sc.refine(2 * n)
	ca, cb := c[:n], c[n:]
	msA, msB := sc.tmp[:n], sc.tmp[n:]
	copy(msA, ca)
	copy(msB, cb)
	slices.Sort(msA)
	slices.Sort(msB)
	if !slices.Equal(msA, msB) {
		return false
	}
	// Process marked sources first (ascending), then the rest by
	// (refined class size, color, id): rare classes bind early.
	size := sc.size
	clear(size)
	for _, v := range ca {
		size[v]++
	}
	order := sc.order[:0]
	for i := 0; i < n; i++ {
		if sc.mark[i] == 1 {
			order = append(order, i)
		}
	}
	marked := len(order)
	for i := 0; i < n; i++ {
		if sc.mark[i] == 0 {
			order = append(order, i)
		}
	}
	rank := func(v int) int { return (size[ca[v]]*2*n+ca[v])*n + v } // colors < 2n
	slices.SortFunc(order[marked:], func(a, b int) int { return cmp.Compare(rank(a), rank(b)) })
	sc.ca, sc.cb = ca, cb
	clear(sc.used)
	return sc.extend(0)
}

// extend binds order[i:] one node at a time, trying images in ascending
// order; a binding must match its refined color and relate to every
// earlier binding as its source does. Each try spends one budget step.
func (sc *scratch) extend(i int) bool {
	if i == len(sc.order) {
		return true
	}
	n, lc := sc.s.n, sc.s.lc
	v := sc.order[i]
next:
	for w := 0; w < n; w++ {
		sc.budget--
		if sc.budget <= 0 {
			return false
		}
		if sc.used[w] == 1 || sc.cb[w] != sc.ca[v] {
			continue
		}
		for _, u := range sc.order[:i] {
			if lc[v*n+u] != lc[w*n+sc.perm[u]] {
				continue next
			}
		}
		sc.perm[v] = w
		sc.used[w] = 1
		if sc.extend(i + 1) {
			return true
		}
		sc.used[w] = 0
		if sc.budget <= 0 {
			return false
		}
	}
	return false
}

// inverse returns the inverse of perm, or nil when perm is the identity.
func inverse(perm []int) []network.NodeID {
	for i, v := range perm {
		if v != i {
			inv := make([]network.NodeID, len(perm))
			for i, v := range perm {
				inv[v] = network.NodeID(i)
			}
			return inv
		}
	}
	return nil
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
