// Package network simulates the communication substrate from the paper's
// system model (§2.1): a set of nodes connected by links with finite
// bandwidth, where "the bandwidth of each link is statically allocated
// between the nodes" (the babbling-idiot countermeasure) and residual
// packet loss after FEC is rare enough to ignore by default.
//
// Two traffic classes exist on every link: the foreground class used by
// dataflow traffic and a reserved evidence class (§4.3) whose capacity
// share is carved out statically, so evidence distribution latency cannot
// be inflated by foreground congestion or by a flooding adversary.
package network

import (
	"fmt"
	"sync/atomic"

	"btr/internal/sim"
)

// NodeID identifies a node in the topology. IDs are dense, 0..N-1.
type NodeID int

// Link is an undirected, full-duplex, point-to-point link between two
// nodes. Each direction independently offers Bandwidth bytes/second; Prop
// is the one-way propagation delay.
type Link struct {
	A, B      NodeID
	Bandwidth int64 // bytes per second, per direction
	Prop      sim.Time
}

// Topology is a static node/link graph. Construct with NewTopology, one
// of the generators, or WithDelta.
//
// A Topology is immutable after construction: N and Links must not be
// changed, and a new wiring is a new Topology (WithDelta). Because of
// that, every static routing question — Path, NextHop, Hops, Diameter —
// is answered from one all-pairs route table that is filled lazily, one
// source row on first use, and is safe for concurrent use. Path and
// Neighbors return slices shared with the topology; callers must not
// mutate them. Only hopsAround and DiameterWithin, whose answers depend
// on run-time node health or epoch membership, search the graph afresh:
// hopsAround once per call for one relay's whole row, DiameterWithin
// from each member in turn, in one set of buffers per call. A relay with
// no node down takes its hop from the route table (NextHop), which is the
// hop hopsAround finds with no node down.
type Topology struct {
	N     int
	Links []Link

	adj map[NodeID][]NodeID // neighbor lists, sorted
	lnk map[[2]NodeID]int   // directed endpoint pair -> Links index

	// routes[src] is src's row of the route table, nil until first use:
	// the unfiltered bfsFrom(src) materialised as one shortest path
	// src..dst per destination (nil if unreachable). Racing builders
	// compute identical rows and the first one published wins, so a path
	// handed out once stays the path handed out always.
	routes []atomic.Pointer[[][]NodeID]
}

// NewTopology builds a topology over n nodes with the given links and
// precomputes adjacency. It panics on malformed input; topologies are
// static configuration, so errors are programmer errors.
func NewTopology(n int, links []Link) *Topology {
	t := &Topology{N: n, Links: links}
	t.routes = make([]atomic.Pointer[[][]NodeID], n)
	t.adj = make(map[NodeID][]NodeID, n)
	t.lnk = make(map[[2]NodeID]int, 2*len(links))
	for i, l := range links {
		if l.A == l.B {
			panic(fmt.Sprintf("network: self-link on node %d", l.A))
		}
		if l.A < 0 || int(l.A) >= n || l.B < 0 || int(l.B) >= n {
			panic(fmt.Sprintf("network: link %d-%d out of range [0,%d)", l.A, l.B, n))
		}
		if l.Bandwidth <= 0 {
			panic(fmt.Sprintf("network: link %d-%d has non-positive bandwidth", l.A, l.B))
		}
		if _, dup := t.lnk[[2]NodeID{l.A, l.B}]; dup {
			panic(fmt.Sprintf("network: duplicate link %d-%d", l.A, l.B))
		}
		t.lnk[[2]NodeID{l.A, l.B}] = i
		t.lnk[[2]NodeID{l.B, l.A}] = i
		t.adj[l.A] = append(t.adj[l.A], l.B)
		t.adj[l.B] = append(t.adj[l.B], l.A)
	}
	for id := range t.adj {
		ns := t.adj[id]
		for i := 1; i < len(ns); i++ { // insertion sort: lists are short
			for j := i; j > 0 && ns[j] < ns[j-1]; j-- {
				ns[j], ns[j-1] = ns[j-1], ns[j]
			}
		}
	}
	return t
}

// Neighbors returns the sorted neighbor list of id (shared slice; do not
// mutate).
func (t *Topology) Neighbors(id NodeID) []NodeID { return t.adj[id] }

// LinkBetween returns the link joining a and b, if any.
func (t *Topology) LinkBetween(a, b NodeID) (Link, bool) {
	i, ok := t.lnk[[2]NodeID{a, b}]
	if !ok {
		return Link{}, false
	}
	return t.Links[i], true
}

// Connected reports whether the graph is connected (ignoring node health;
// this is the physical wiring).
func (t *Topology) Connected() bool {
	if t.N == 0 {
		return true
	}
	seen := make([]bool, t.N)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range t.adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == t.N
}

// bfsFrom fills dist and parent, of length N, with hop distances and
// deterministic parent pointers from src, skipping nodes for which skip
// returns true (src itself is never skipped); unreachable nodes get dist
// -1. queue, of capacity N, is scratch: a caller running many searches
// allocates the buffers once.
func (t *Topology) bfsFrom(src NodeID, skip func(NodeID) bool, dist []int, parent, queue []NodeID) {
	for i := range dist {
		dist[i], parent[i] = -1, -1
	}
	dist[src] = 0
	queue = append(queue[:0], src) // every node is enqueued at most once
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range t.adj[v] { // sorted ⇒ deterministic parents
			if dist[w] != -1 || (skip != nil && skip(w)) {
				continue
			}
			dist[w] = dist[v] + 1
			parent[w] = v
			queue = append(queue, w)
		}
	}
}

// bfsBuffers allocates bfsFrom's buffers; parent and queue share one
// array.
func (t *Topology) bfsBuffers() (dist []int, parent, queue []NodeID) {
	nodes := make([]NodeID, 2*t.N)
	return make([]int, t.N), nodes[:t.N], nodes[t.N:t.N]
}

// row returns src's row of the route table, building it on first use.
func (t *Topology) row(src NodeID) [][]NodeID {
	if r := t.routes[src].Load(); r != nil {
		return *r
	}
	dist, parent, queue := t.bfsBuffers()
	t.bfsFrom(src, nil, dist, parent, queue)
	total := 0
	for _, d := range dist {
		total += d + 1 // unreachable: -1 + 1 = 0
	}
	backing := make([]NodeID, total)
	paths := make([][]NodeID, t.N)
	for dst, d := range dist {
		if d == -1 {
			continue
		}
		// Cap each path at its length so a caller's append reallocates
		// instead of writing into the next path.
		paths[dst] = backing[: d+1 : d+1]
		backing = backing[d+1:]
		tracePath(paths[dst], parent, NodeID(dst))
	}
	t.routes[src].CompareAndSwap(nil, &paths)
	return *t.routes[src].Load()
}

// Path returns a shortest path from a to b (inclusive of both endpoints),
// choosing deterministically among equals (lowest neighbor IDs first).
// ok is false if no path exists. The slice is shared; do not mutate.
func (t *Topology) Path(a, b NodeID) (path []NodeID, ok bool) {
	path = t.row(a)[b]
	return path, path != nil
}

// NextHop returns the neighbor of a that Path(a, b) goes through. ok is
// false if no path exists or a == b.
func (t *Topology) NextHop(a, b NodeID) (next NodeID, ok bool) {
	path := t.row(a)[b]
	if len(path) < 2 {
		return -1, false
	}
	return path[1], true
}

// Hops returns the hop count of Path(a, b): 0 for a == b, -1 if no path
// exists.
func (t *Topology) Hops(a, b NodeID) int { return len(t.row(a)[b]) - 1 }

// hopsAround returns src's next hop towards every destination on a
// shortest path that relays through no node down marks (-1 where no such
// path exists, and at src). It is one search from src in which a down
// node is reached, so it can still be a destination, but never
// expanded; the first hop towards each node is inherited from its BFS
// parent, so it is the hop of the path Path would trace in the graph
// without the down nodes, the destination put back. down has length N.
func (t *Topology) hopsAround(src NodeID, down []bool) []NodeID {
	buf := make([]NodeID, 2*t.N)
	hops, queue := buf[:t.N:t.N], buf[t.N:t.N]
	for i := range hops {
		hops[i] = -1
	}
	hops[src] = src // marks src reached until the search is done
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if v != src && down[v] {
			continue
		}
		for _, w := range t.adj[v] { // sorted ⇒ deterministic hops
			if hops[w] != -1 {
				continue
			}
			if v == src {
				hops[w] = w
			} else {
				hops[w] = hops[v]
			}
			queue = append(queue, w)
		}
	}
	hops[src] = -1
	return hops
}

// tracePath fills path, whose length is dst's hop count plus one, with
// the parent chain from the BFS source to dst.
func tracePath(path, parent []NodeID, dst NodeID) {
	for v, i := dst, len(path)-1; i >= 0; v, i = parent[v], i-1 {
		path[i] = v
	}
}

// Diameter returns the maximum shortest-path hop count over all connected
// pairs, or -1 for a disconnected graph.
func (t *Topology) Diameter() int {
	max := 0
	for s := 0; s < t.N; s++ {
		for _, path := range t.row(NodeID(s)) {
			if path == nil {
				return -1
			}
			if d := len(path) - 1; d > max {
				max = d
			}
		}
	}
	return max
}

// DiameterWithin returns the maximum shortest-path hop count over all
// pairs of nodes for which member returns true, routing only through
// member nodes — the diameter of the member-induced subgraph. It returns
// -1 when some member pair is disconnected within the subgraph, and 0
// when at most one member exists. Epoch planners use it so per-epoch
// bounds reflect the active membership, not dormant slots.
func (t *Topology) DiameterWithin(member func(NodeID) bool) int {
	max := 0
	dist, parent, queue := t.bfsBuffers()
	for s := 0; s < t.N; s++ {
		if !member(NodeID(s)) {
			continue
		}
		t.bfsFrom(NodeID(s), func(x NodeID) bool { return !member(x) }, dist, parent, queue)
		for v, d := range dist {
			if !member(NodeID(v)) {
				continue
			}
			if d == -1 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// MinBandwidthWithin returns the smallest per-direction bandwidth over
// links whose both endpoints satisfy member (0 if no such link exists).
func (t *Topology) MinBandwidthWithin(member func(NodeID) bool) int64 {
	var min int64
	for _, l := range t.Links {
		if !member(l.A) || !member(l.B) {
			continue
		}
		if min == 0 || l.Bandwidth < min {
			min = l.Bandwidth
		}
	}
	return min
}

// MaxPropWithin returns the largest one-way propagation delay over links
// whose both endpoints satisfy member.
func (t *Topology) MaxPropWithin(member func(NodeID) bool) sim.Time {
	var max sim.Time
	for _, l := range t.Links {
		if !member(l.A) || !member(l.B) {
			continue
		}
		if l.Prop > max {
			max = l.Prop
		}
	}
	return max
}

// WithDelta returns a new topology over the same node slots with the
// given links added and dropped (drops are unordered endpoint pairs;
// dropping a missing link or adding a duplicate panics, like every other
// malformed-wiring programmer error). Membership epochs use it to apply
// a record's administrative link delta to the current wiring.
func (t *Topology) WithDelta(add []Link, drop [][2]NodeID) *Topology {
	gone := make(map[[2]NodeID]bool, len(drop))
	norm := func(a, b NodeID) [2]NodeID {
		if a > b {
			a, b = b, a
		}
		return [2]NodeID{a, b}
	}
	for _, d := range drop {
		if _, ok := t.lnk[[2]NodeID{d[0], d[1]}]; !ok {
			panic(fmt.Sprintf("network: dropping nonexistent link %d-%d", d[0], d[1]))
		}
		gone[norm(d[0], d[1])] = true
	}
	links := make([]Link, 0, len(t.Links)+len(add)-len(drop))
	for _, l := range t.Links {
		if !gone[norm(l.A, l.B)] {
			links = append(links, l)
		}
	}
	links = append(links, add...)
	return NewTopology(t.N, links)
}

// MinBandwidth returns the smallest per-direction link bandwidth in the
// topology; planners use it for conservative worst-case latency bounds.
func (t *Topology) MinBandwidth() int64 {
	if len(t.Links) == 0 {
		return 0
	}
	min := t.Links[0].Bandwidth
	for _, l := range t.Links[1:] {
		if l.Bandwidth < min {
			min = l.Bandwidth
		}
	}
	return min
}

// MaxProp returns the largest one-way propagation delay of any link.
func (t *Topology) MaxProp() sim.Time {
	var max sim.Time
	for _, l := range t.Links {
		if l.Prop > max {
			max = l.Prop
		}
	}
	return max
}

// --- Generators -----------------------------------------------------------

// Line returns a path topology 0-1-2-...-(n-1).
func Line(n int, bw int64, prop sim.Time) *Topology {
	links := make([]Link, 0, n-1)
	for i := 0; i < n-1; i++ {
		links = append(links, Link{NodeID(i), NodeID(i + 1), bw, prop})
	}
	return NewTopology(n, links)
}

// Ring returns a cycle topology.
func Ring(n int, bw int64, prop sim.Time) *Topology {
	if n < 3 {
		panic("network: ring needs n >= 3")
	}
	links := make([]Link, 0, n)
	for i := 0; i < n; i++ {
		links = append(links, Link{NodeID(i), NodeID((i + 1) % n), bw, prop})
	}
	return NewTopology(n, links)
}

// Star returns a hub-and-spoke topology with node 0 as the hub.
func Star(n int, bw int64, prop sim.Time) *Topology {
	links := make([]Link, 0, n-1)
	for i := 1; i < n; i++ {
		links = append(links, Link{0, NodeID(i), bw, prop})
	}
	return NewTopology(n, links)
}

// FullMesh returns a complete graph.
func FullMesh(n int, bw int64, prop sim.Time) *Topology {
	var links []Link
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			links = append(links, Link{NodeID(i), NodeID(j), bw, prop})
		}
	}
	return NewTopology(n, links)
}

// Grid returns a w×h mesh grid; node (x,y) has index y*w+x.
func Grid(w, h int, bw int64, prop sim.Time) *Topology {
	var links []Link
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				links = append(links, Link{id(x, y), id(x+1, y), bw, prop})
			}
			if y+1 < h {
				links = append(links, Link{id(x, y), id(x, y+1), bw, prop})
			}
		}
	}
	return NewTopology(w*h, links)
}

// DualBus models the redundant-bus layout common in avionics (e.g., two
// CAN buses): nodes 0 and 1 act as bus guardians/switch nodes and every
// other node links to both, giving two node-disjoint paths between any two
// non-guardian nodes.
func DualBus(n int, bw int64, prop sim.Time) *Topology {
	if n < 3 {
		panic("network: dual bus needs n >= 3")
	}
	var links []Link
	links = append(links, Link{0, 1, bw, prop})
	for i := 2; i < n; i++ {
		links = append(links, Link{0, NodeID(i), bw, prop})
		links = append(links, Link{1, NodeID(i), bw, prop})
	}
	return NewTopology(n, links)
}

// RandomConnected returns a random connected graph: a random spanning tree
// plus extra edges added with probability p per remaining pair. The result
// is deterministic in rng.
func RandomConnected(rng *sim.RNG, n int, p float64, bw int64, prop sim.Time) *Topology {
	if n < 1 {
		panic("network: RandomConnected needs n >= 1")
	}
	var links []Link
	have := map[[2]NodeID]bool{}
	addLink := func(a, b NodeID) {
		if a > b {
			a, b = b, a
		}
		if have[[2]NodeID{a, b}] {
			return
		}
		have[[2]NodeID{a, b}] = true
		links = append(links, Link{a, b, bw, prop})
	}
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		// Attach each node to a random earlier node: uniform spanning
		// tree over the permutation order.
		addLink(NodeID(perm[i]), NodeID(perm[rng.Intn(i)]))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Bool(p) {
				addLink(NodeID(i), NodeID(j))
			}
		}
	}
	return NewTopology(n, links)
}
