// Package network provides BTR's communication substrate behind a single
// seam: the Transport interface. Two implementations exist. The
// simulated Network models each link's serialization and propagation on
// its scheduler's timeline; driven by the discrete-event kernel it is
// the simulator's network, driven by a sim.WallScheduler it is the live
// in-process one, paced by the wall clock. The TCPBus (tcpbus.go)
// carries the same traffic over real TCP sockets between node
// processes. Both embed one transport core, the plane (plane.go):
// control plane, counters, message creation, delivery, relay filtering
// and forwarding are written once, and each implementation supplies only
// how a single hop is carried. Runtime code depends only on Transport, so
// the same node executive runs under simulation, live in-process
// deployment, and multi-process deployment unchanged. Topology
// (topology.go) describes the static wiring all implementations share.
package network

import (
	"fmt"

	"btr/internal/sim"
)

// Transport is the seam between the node runtime and whatever carries its
// messages. Implementations deliver asynchronously — via scheduler events
// (Network) or socket readers feeding back into the scheduler (TCPBus) —
// and must obey two delivery guarantees the runtime is built on:
//
//   - Serial handlers: handlers are invoked serially, never concurrently,
//     preserving the runtime's no-locking discipline. Every delivery is a
//     scheduler event; TCPBus readers hand theirs to the scheduler.
//
//   - Per-(link, class) FIFO: two messages transmitted on the same
//     directed link in the same class are delivered (to the next hop) in
//     transmission order. The runtime's period machinery assumes this —
//     e.g. an output for period p sent before an output for p+1 on the
//     same adjacency never overtakes it. No ordering is promised across
//     different links, directions, or classes. The transport contract
//     suite (transport_test.go) asserts this, with the rest of the shared
//     behaviour, on every implementation.
//
// Concurrency contract per method: Send and SendDirect must be called
// from scheduler callbacks (or before dispatch starts) — they stamp Sent
// from the logical clock and use unlocked sequence and loss-RNG state.
// Handle, SetDown, IsDown, SetForwardFilter, SetWiring, Topology and
// Snapshot are locked and safe from any goroutine on every
// implementation, so adversary drivers and supervision goroutines may
// call them directly.
type Transport interface {
	// Topology returns the static wiring.
	Topology() *Topology
	// Handle installs the delivery handler for node id.
	Handle(id NodeID, h Handler)
	// Send routes payload from src to dst along the (dynamic) shortest
	// path with store-and-forward at intermediate hops. It reports false
	// if no path exists or the sender is down.
	//
	// A payload is read-only once sent: neither the sender, the
	// transport, relays nor handlers may modify it, so one payload may be
	// shared across any number of sends. Evidence flooding sends one
	// encoding to every neighbor, and a task sends one sealed record on
	// every output edge.
	Send(src, dst NodeID, class Class, payload []byte) bool
	// SendDirect transmits payload one hop to an adjacent neighbor,
	// reporting false if the nodes are not adjacent or the sender is down.
	// The payload is read-only once sent, as for Send.
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
	// neighbor lists, and — on TCPBus — the link connections follow the
	// new wiring from the next send onward; traffic already in flight
	// completes under the wiring it was sent on.
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
//
// The transport carves the messages it creates from per-plane chunks of
// msgChunk and never recycles one, so a handler or filter may keep a
// *Message as long as it likes. A retained message keeps its whole chunk
// (and the payloads the chunk's other messages reference) reachable;
// that costs memory only.
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

	// net is the simulated Network carrying the current hop (see
	// inFlight); TCPBus leaves it nil.
	net *plane
}

// inFlight is a Message on a simulated wire. It is its own arrival
// event, so a hop schedules the message itself rather than a closure.
type inFlight Message

// Fire delivers the message at the end of its hop.
func (m *inFlight) Fire() { m.net.arrive((*Message)(m)) }

// Size returns the number of bytes the message occupies on the wire.
// A fixed header models addressing, sequencing and the MAC trailer.
func (m *Message) Size() int64 { return int64(len(m.Payload)) + headerBytes }

const headerBytes = 32

// Handler consumes messages delivered to a node.
type Handler func(m *Message)

// ForwardFilter lets a (Byzantine) node interfere with traffic it relays:
// return (msg, 0, true) to forward unchanged, (msg, d, true) to delay by d,
// or (nil, 0, false) to drop. Correct nodes have no filter installed. A
// filter that alters what it relays returns a new Message with its own
// payload: m.Payload may be shared with other sends (see Transport.Send).
type ForwardFilter func(m *Message) (*Message, sim.Time, bool)

// Stats aggregates per-class traffic counters.
type Stats struct {
	MsgsSent      [numClasses]uint64
	MsgsDelivered [numClasses]uint64
	MsgsDropped   [numClasses]uint64
	// MsgsShed is the subset of MsgsDropped lost to queue-full
	// backpressure shedding on TCPBus (a link queue at capacity chose a
	// victim by class policy), where the bound is real memory. The
	// simulated Network models unbounded busy-until queueing and never
	// sheds, in simulation and live alike; there the evidence class's
	// reserved share alone keeps a flood off foreground traffic.
	// Surfacing the counter separately is what makes overload visible:
	// drops from crashed nodes or missing routes are faults, sheds are
	// saturation.
	MsgsShed  [numClasses]uint64
	BytesSent [numClasses]uint64
	// BusyUntil tracking yields utilization via BytesSent / capacity·time.
}

// TotalShed sums shed counts across classes (the overload signal
// reports surface; only TCPBus sheds).
func (s Stats) TotalShed() uint64 {
	var t uint64
	for _, v := range s.MsgsShed {
		t += v
	}
	return t
}

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

// Network is the simulated transport, driven by its scheduler's
// serialized callbacks — the kernel's in simulation, a WallScheduler's in
// a live in-process deployment. It embeds the shared plane (control
// plane, counters, Send/SendDirect, relay path) and carries each hop as
// busy-until bookkeeping per channel plus one scheduler event at the
// modeled arrival instant.
type Network struct {
	plane
	cfg  Config
	free map[chanKey]sim.Time // next time the channel is idle
}

// Network implements Transport.
var _ Transport = (*Network)(nil)

// New creates a transport over topo driven by scheduler k (the
// discrete-event kernel or a wall scheduler; any sim.Scheduler works).
func New(k sim.Scheduler, topo *Topology, cfg Config) *Network {
	if cfg.EvidenceShare < 0 || cfg.EvidenceShare >= 1 {
		panic("network: EvidenceShare must be in [0,1)")
	}
	n := &Network{cfg: cfg, free: make(map[chanKey]sim.Time)}
	n.init(k, topo, cfg.LossProb, n.hop)
	return n
}

// SetWiring replaces the active wiring; it only swaps the locked
// topology, so it is safe from any goroutine. Channel busy-until state
// for links present in both wirings carries over (same chanKey); state
// for removed links is simply never consulted again.
func (n *Network) SetWiring(t *Topology) { n.setTopology(t) }

// ClassCapacity returns the bytes/second class gets on one direction of a
// link of bandwidth bw when share of it is reserved for evidence. With no
// reservation (share 0) both classes share the whole link. The result is
// at least 1, so it is always a valid TxTime divisor.
func ClassCapacity(bw int64, share float64, class Class) int64 {
	frac := 1.0
	switch {
	case share == 0:
	case class == ClassForeground:
		frac = 1 - share
	default:
		frac = share
	}
	return max(int64(float64(bw)*frac), 1)
}

// TxTime returns the serialization delay of size bytes at capacity
// bytes/second, rounded up to a whole microsecond. The planner's
// worst-case analysis uses it too.
func TxTime(size, capacity int64) sim.Time {
	return sim.Time((size*int64(sim.Second) + capacity - 1) / capacity)
}

// hop serializes m behind its channel's backlog and schedules its arrival
// one transmission time plus propagation later.
func (n *Network) hop(m *Message) bool {
	link, ok := n.Topology().LinkBetween(m.From, m.To)
	if !ok {
		n.countDropped(m.Class)
		return false
	}
	key := chanKey{m.From, m.To, m.Class}
	if n.cfg.EvidenceShare == 0 {
		key.class = ClassForeground // no reservation: one shared channel
	}
	start := n.sched.Now()
	if f := n.free[key]; f > start {
		start = f
	}
	tt := TxTime(m.Size(), ClassCapacity(link.Bandwidth, n.cfg.EvidenceShare, m.Class))
	n.free[key] = start + tt
	n.countSent(m.Class, m.Size())
	m.net = &n.plane
	n.sched.AtEvent(start+tt+link.Prop, (*inFlight)(m))
	return true
}
