// Package network provides BTR's communication substrate behind a single
// seam: the Transport interface. Three implementations exist — the
// deterministic simulated Network (single-threaded, driven by any
// sim.Scheduler, historically the discrete-event kernel), the live Bus
// (bus.go), a channel-based in-process transport whose per-link shaping
// goroutines model serialization on the wall clock, and the TCPBus
// (tcpbus.go), which carries the same traffic over real TCP sockets
// between node processes. Runtime code depends only on Transport, so the
// same node executive runs under simulation, live in-process deployment,
// and multi-process deployment unchanged. Topology (topology.go)
// describes the static wiring all implementations share.
package network

import (
	"fmt"

	"btr/internal/sim"
)

// Transport is the seam between the node runtime and whatever carries its
// messages. Implementations deliver asynchronously — via scheduler events
// (Network), shaping goroutines feeding back into the scheduler (Bus), or
// socket readers feeding back into the scheduler (TCPBus) — and must obey
// two delivery guarantees the runtime is built on:
//
//   - Serial handlers: handlers are invoked serially, never concurrently,
//     preserving the runtime's no-locking discipline. Live transports
//     achieve this by re-entering deliveries through the scheduler.
//
//   - Per-(link, class) FIFO: two messages transmitted on the same
//     directed link in the same class are delivered (to the next hop) in
//     transmission order. The runtime's period machinery assumes this —
//     e.g. an output for period p sent before an output for p+1 on the
//     same adjacency never overtakes it. No ordering is promised across
//     different links, directions, or classes. TestTransportFIFOPerLink
//     asserts this for every implementation.
//
// Concurrency contract per method: Send and SendDirect must be called
// from scheduler callbacks (or before dispatch starts) — they stamp Sent
// from the logical clock and, on the simulated Network, touch unlocked
// kernel state. Snapshot is safe from any goroutine. For the remaining
// control-plane methods (Handle, SetDown, IsDown, SetForwardFilter,
// SetWiring, Topology) the implementations differ: the simulated Network
// is single-threaded and requires scheduler-callback context for them
// too, while the live Bus and TCPBus guard that state with a lock so
// adversary drivers and supervision goroutines may call them from any
// goroutine. Code written against the Transport seam (rather than a
// concrete implementation) must assume the stricter contract.
type Transport interface {
	// Topology returns the static wiring.
	Topology() *Topology
	// Handle installs the delivery handler for node id.
	Handle(id NodeID, h Handler)
	// Send routes payload from src to dst along the (dynamic) shortest
	// path with store-and-forward at intermediate hops. It reports false
	// if no path exists or the sender is down.
	Send(src, dst NodeID, class Class, payload []byte) bool
	// SendDirect transmits payload one hop to an adjacent neighbor,
	// reporting false if the nodes are not adjacent or the sender is down.
	SendDirect(from, to NodeID, class Class, payload []byte) bool
	// SetDown marks node id as crashed (true) or repaired (false). A down
	// node does not receive, send, or forward.
	SetDown(id NodeID, down bool)
	// IsDown reports whether id is crashed.
	IsDown(id NodeID) bool
	// SetForwardFilter installs a Byzantine relay filter on node id.
	SetForwardFilter(id NodeID, f ForwardFilter)
	// SetWiring replaces the active wiring with t (same node-slot count;
	// membership epochs pass the member-restricted link set). Routing,
	// neighbor lists, and — on the live Bus — the per-link shaping lanes
	// follow the new wiring from the next send onward; traffic already in
	// flight completes under the wiring it was sent on.
	SetWiring(t *Topology)
	// Snapshot returns the traffic counters accumulated so far.
	Snapshot() Stats
}

// Class selects which statically-allocated share of link capacity a
// message uses. The evidence class exists so that fault evidence (§4.3)
// "competes for resources with the foreground tasks" only up to its
// reserved share and can never be starved by foreground load.
type Class int

const (
	// ClassForeground carries dataflow (sensor/task/actuator) traffic.
	ClassForeground Class = iota
	// ClassEvidence carries fault evidence on the reserved share.
	ClassEvidence
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassForeground:
		return "foreground"
	case ClassEvidence:
		return "evidence"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Message is a unit of traffic. Payload bytes are opaque to the network.
type Message struct {
	ID      uint64
	Src     NodeID // original sender
	Dst     NodeID // final destination
	From    NodeID // this hop's sender
	To      NodeID // this hop's receiver
	Class   Class
	Payload []byte
	Sent    sim.Time // time the original send was issued
	Hops    int
}

// Size returns the number of bytes the message occupies on the wire.
// A fixed header models addressing, sequencing and the MAC trailer.
func (m *Message) Size() int64 { return int64(len(m.Payload)) + headerBytes }

const headerBytes = 32

// Handler consumes messages delivered to a node.
type Handler func(m *Message)

// ForwardFilter lets a (Byzantine) node interfere with traffic it relays:
// return (msg, 0, true) to forward unchanged, (msg, d, true) to delay by d,
// or (nil, 0, false) to drop. Correct nodes have no filter installed.
type ForwardFilter func(m *Message) (*Message, sim.Time, bool)

// Stats aggregates per-class traffic counters.
type Stats struct {
	MsgsSent      [numClasses]uint64
	MsgsDelivered [numClasses]uint64
	MsgsDropped   [numClasses]uint64
	// MsgsShed is the subset of MsgsDropped lost to queue-full
	// backpressure shedding on the live transports (a lane or link queue
	// at capacity chose a victim by class policy). The simulated Network
	// models unbounded busy-until queueing and never sheds. Surfacing the
	// counter separately is what makes overload visible: drops from
	// crashed nodes or missing routes are faults, sheds are saturation.
	MsgsShed  [numClasses]uint64
	BytesSent [numClasses]uint64
	// BusyUntil tracking yields utilization via BytesSent / capacity·time.
}

// TotalShed sums shed counts across classes (the overload signal live
// reports surface).
func (s Stats) TotalShed() uint64 {
	var t uint64
	for _, v := range s.MsgsShed {
		t += v
	}
	return t
}

// PreVerifier, when installed on a live transport, is handed every
// coalesced inbound batch of evidence-class messages on the transport's
// own reader/lane goroutine, before the batch re-enters the scheduler
// for delivery. The runtime installs a signature pre-verifier here so
// bulk crypto (the batched cofactored verify) runs concurrently with the
// executor and primes the verify memo; by the time the handler sees each
// message, its signatures are memo hits. Implementations MUST be
// thread-safe and MUST NOT mutate the messages: delivery semantics are
// identical with or without a pre-verifier.
type PreVerifier func(ms []*Message)

// Config tunes the transport.
type Config struct {
	// EvidenceShare is the fraction of every link's per-direction
	// bandwidth reserved for ClassEvidence (0 disables the reservation
	// and evidence contends with foreground traffic; used by the E6
	// ablation). Typical: 0.2.
	EvidenceShare float64
	// LossProb is the residual per-hop loss probability after FEC.
	// The paper's model assumes losses "rare enough to be ignored";
	// default 0. Nonzero values exercise robustness tests.
	LossProb float64
}

// DefaultConfig matches the paper's assumptions.
func DefaultConfig() Config { return Config{EvidenceShare: 0.2, LossProb: 0} }

// chanKey identifies one directed virtual channel: (link direction, class).
type chanKey struct {
	from, to NodeID
	class    Class
}

// Network is the simulated transport. It is single-goroutine (driven by
// its scheduler's serialized callbacks) and therefore needs no locking:
// every method except Snapshot — including Handle, SetDown, and
// SetForwardFilter — must be called from scheduler callbacks or before
// dispatch starts. (The live Bus and TCPBus lock this state instead; see
// the Transport contract.)
type Network struct {
	k    sim.Scheduler
	topo *Topology
	cfg  Config

	handlers []Handler
	filters  []ForwardFilter
	down     []bool // crashed nodes neither receive nor forward

	free   map[chanKey]sim.Time // next time the channel is idle
	nextID uint64
	rng    *sim.RNG

	Stats Stats
}

// Network implements Transport.
var _ Transport = (*Network)(nil)

// New creates a transport over topo driven by scheduler k (usually the
// discrete-event kernel; any sim.Scheduler works).
func New(k sim.Scheduler, topo *Topology, cfg Config) *Network {
	if cfg.EvidenceShare < 0 || cfg.EvidenceShare >= 1 {
		panic("network: EvidenceShare must be in [0,1)")
	}
	return &Network{
		k:        k,
		topo:     topo,
		cfg:      cfg,
		handlers: make([]Handler, topo.N),
		filters:  make([]ForwardFilter, topo.N),
		down:     make([]bool, topo.N),
		free:     make(map[chanKey]sim.Time),
		rng:      k.RNG().Fork(),
	}
}

// Topology returns the static wiring.
func (n *Network) Topology() *Topology { return n.topo }

// Handle installs the delivery handler for node id.
func (n *Network) Handle(id NodeID, h Handler) { n.handlers[id] = h }

// SetForwardFilter installs a Byzantine relay filter on node id.
func (n *Network) SetForwardFilter(id NodeID, f ForwardFilter) { n.filters[id] = f }

// SetDown marks node id as crashed (true) or repaired (false). A down node
// does not receive, send, or forward.
func (n *Network) SetDown(id NodeID, down bool) { n.down[id] = down }

// SetWiring replaces the active wiring. Channel busy-until state for
// links present in both wirings carries over (same chanKey); state for
// removed links is simply never consulted again.
func (n *Network) SetWiring(t *Topology) {
	if t.N != n.topo.N {
		panic("network: SetWiring must keep the node-slot count")
	}
	n.topo = t
}

// IsDown reports whether id is crashed.
func (n *Network) IsDown(id NodeID) bool { return n.down[id] }

// Snapshot returns the traffic counters accumulated so far.
func (n *Network) Snapshot() Stats { return n.Stats }

// capacity returns the bytes/second available to class on one direction of
// link l.
func (n *Network) capacity(l Link, class Class) int64 {
	share := n.cfg.EvidenceShare
	if share == 0 {
		return l.Bandwidth // single shared channel; class is ignored
	}
	if class == ClassEvidence {
		c := int64(float64(l.Bandwidth) * share)
		if c < 1 {
			c = 1
		}
		return c
	}
	c := int64(float64(l.Bandwidth) * (1 - share))
	if c < 1 {
		c = 1
	}
	return c
}

// txTime returns the serialization delay of size bytes at cap bytes/second,
// rounded up to a whole microsecond.
func txTime(size, capacity int64) sim.Time {
	us := (size*int64(sim.Second) + capacity - 1) / capacity
	return sim.Time(us)
}

// TxTime exposes serialization delay for planner worst-case analysis.
func TxTime(size, capacity int64) sim.Time { return txTime(size, capacity) }

// SendDirect transmits payload one hop from to to an adjacent neighbor.
// It returns false if the nodes are not adjacent or the sender is down.
// Delivery (or forwarding) happens asynchronously via kernel events.
func (n *Network) SendDirect(from, to NodeID, class Class, payload []byte) bool {
	m := n.newMessage(from, to, class, payload)
	m.From, m.To = from, to
	return n.transmit(m)
}

// Send routes payload from src to dst along the static shortest path.
// Intermediate hops store-and-forward; a down or malicious intermediate
// may drop it (that is the point — omission faults on paths are part of
// the threat model, §4.2).
func (n *Network) Send(src, dst NodeID, class Class, payload []byte) bool {
	if src == dst {
		panic("network: Send to self")
	}
	next, ok := n.topo.NextHop(src, dst)
	if !ok {
		return false
	}
	m := n.newMessage(src, dst, class, payload)
	m.From, m.To = src, next
	return n.transmit(m)
}

func (n *Network) newMessage(src, dst NodeID, class Class, payload []byte) *Message {
	n.nextID++
	return &Message{
		ID:      n.nextID,
		Src:     src,
		Dst:     dst,
		Class:   class,
		Payload: payload,
		Sent:    n.k.Now(),
	}
}

// transmit puts m on the wire for its current (From, To) hop.
func (n *Network) transmit(m *Message) bool {
	if n.down[m.From] {
		n.Stats.MsgsDropped[m.Class]++
		return false
	}
	link, ok := n.topo.LinkBetween(m.From, m.To)
	if !ok {
		n.Stats.MsgsDropped[m.Class]++
		return false
	}
	key := chanKey{m.From, m.To, m.Class}
	if n.cfg.EvidenceShare == 0 {
		key.class = ClassForeground // single shared channel
	}
	now := n.k.Now()
	start := now
	if f := n.free[key]; f > start {
		start = f
	}
	tt := txTime(m.Size(), n.capacity(link, m.Class))
	n.free[key] = start + tt
	n.Stats.MsgsSent[m.Class]++
	n.Stats.BytesSent[m.Class] += uint64(m.Size())
	arrival := start + tt + link.Prop
	n.k.At(arrival, func() { n.arrive(m) })
	return true
}

// arrive handles a message reaching m.To: deliver if final, else forward.
func (n *Network) arrive(m *Message) {
	if n.down[m.To] {
		n.Stats.MsgsDropped[m.Class]++
		return
	}
	if n.cfg.LossProb > 0 && n.rng.Bool(n.cfg.LossProb) {
		n.Stats.MsgsDropped[m.Class]++
		return
	}
	m.Hops++
	if m.To == m.Dst {
		n.Stats.MsgsDelivered[m.Class]++
		if h := n.handlers[m.To]; h != nil {
			h(m)
		}
		return
	}
	// Forwarding hop. A Byzantine relay may interfere.
	relay := m.To
	if f := n.filters[relay]; f != nil {
		fm, delay, fwd := f(m)
		if !fwd {
			n.Stats.MsgsDropped[m.Class]++
			return
		}
		m = fm
		if delay > 0 {
			n.k.After(delay, func() { n.forward(relay, m) })
			return
		}
	}
	n.forward(relay, m)
}

// forward advances m one hop along the current shortest path from relay,
// avoiding known-down intermediates when an alternative exists.
func (n *Network) forward(relay NodeID, m *Message) {
	path, ok := n.topo.PathAvoiding(relay, m.Dst, func(x NodeID) bool { return n.down[x] })
	if !ok || len(path) < 2 {
		n.Stats.MsgsDropped[m.Class]++
		return
	}
	m.From, m.To = relay, path[1]
	n.transmit(m)
}

// WorstCaseOneHop bounds the latency of a single-hop message of size bytes
// in class c assuming the channel is found busy with a maximal backlog of
// backlogMsgs messages of maxMsg bytes. Planners use this to derive
// detection and distribution bounds.
func (n *Network) WorstCaseOneHop(size int64, c Class, backlogMsgs int, maxMsg int64) sim.Time {
	capMin := n.topo.MinBandwidth()
	if n.cfg.EvidenceShare > 0 {
		if c == ClassEvidence {
			capMin = int64(float64(capMin) * n.cfg.EvidenceShare)
		} else {
			capMin = int64(float64(capMin) * (1 - n.cfg.EvidenceShare))
		}
		if capMin < 1 {
			capMin = 1
		}
	}
	t := txTime(size+headerBytes, capMin) + n.topo.MaxProp()
	t += sim.Time(backlogMsgs) * txTime(maxMsg+headerBytes, capMin)
	return t
}
