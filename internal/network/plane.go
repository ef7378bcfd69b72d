package network

import (
	"sync"

	"btr/internal/sim"
)

// plane is the transport core every implementation embeds: the control
// plane, the traffic counters, message creation, and the relay path a
// message takes once it reaches a node (deliver, or filter and forward).
// What differs between Network and TCPBus is only how one hop is
// carried — busy-until bookkeeping and a scheduler event, or a socket
// link queue — and that is the hop function each one installs. So both
// deliver, relay, filter and count the same way by construction; the
// contract suite (transport_test.go) runs the same behaviours on each of
// them.
//
// Concurrency: the control plane (Topology, Handle, SetForwardFilter,
// SetDown, IsDown, setTopology) is guarded by stateMu and Snapshot by
// statsMu, so both are safe from any goroutine. Send, SendDirect, arrive
// and forward must run in scheduler callbacks (or before dispatch
// starts): they stamp Sent from the logical clock and use nextID and rng
// unlocked.
type plane struct {
	sched    sim.Scheduler
	lossProb float64
	// hop puts m on the wire for its current (From, To) hop, reporting
	// whether it was accepted. The sender is known to be up.
	hop func(m *Message) bool

	// stateMu guards the control plane. Hot-path reads take the read
	// lock; an uncontended RLock is one atomic and allocates nothing.
	stateMu  sync.RWMutex
	topo     *Topology
	handlers []Handler
	filters  []ForwardFilter
	down     []bool // down nodes neither send, receive, nor forward

	statsMu sync.Mutex
	stats   Stats

	nextID uint64
	rng    *sim.RNG
	// msgs is the unused rest of the chunk newMessage carves from.
	msgs []Message
}

// msgChunk is how many messages newMessage allocates at once.
const msgChunk = 64

// init wires the plane to its scheduler, initial topology and hop
// carrier, and forks the residual-loss RNG from the scheduler's.
func (p *plane) init(sched sim.Scheduler, topo *Topology, lossProb float64, hop func(*Message) bool) {
	p.sched = sched
	p.lossProb = lossProb
	p.hop = hop
	p.topo = topo
	p.handlers = make([]Handler, topo.N)
	p.filters = make([]ForwardFilter, topo.N)
	p.down = make([]bool, topo.N)
	p.rng = sched.RNG().Fork()
}

// Topology returns the active wiring.
func (p *plane) Topology() *Topology {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	return p.topo
}

// setTopology swaps the active wiring; the node-slot count is fixed.
func (p *plane) setTopology(t *Topology) {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	if t.N != p.topo.N {
		panic("network: SetWiring must keep the node-slot count")
	}
	p.topo = t
}

// Handle installs the delivery handler for node id.
func (p *plane) Handle(id NodeID, h Handler) {
	p.stateMu.Lock()
	p.handlers[id] = h
	p.stateMu.Unlock()
}

// SetForwardFilter installs a Byzantine relay filter on node id.
func (p *plane) SetForwardFilter(id NodeID, f ForwardFilter) {
	p.stateMu.Lock()
	p.filters[id] = f
	p.stateMu.Unlock()
}

// SetDown marks node id as crashed (true) or repaired (false). A down node
// does not receive, send, or forward. On TCPBus this is local knowledge:
// it silences self or steers forwarding around a peer believed down.
func (p *plane) SetDown(id NodeID, down bool) {
	p.stateMu.Lock()
	p.down[id] = down
	p.stateMu.Unlock()
}

// IsDown reports whether id is crashed.
func (p *plane) IsDown(id NodeID) bool {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	return p.down[id]
}

// handlerFor and filterFor are the locked hot-path reads arrive uses.
func (p *plane) handlerFor(id NodeID) Handler {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	return p.handlers[id]
}

func (p *plane) filterFor(id NodeID) ForwardFilter {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	return p.filters[id]
}

// Snapshot returns the traffic counters accumulated so far.
func (p *plane) Snapshot() Stats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
}

func (p *plane) countSent(class Class, size int64) {
	p.statsMu.Lock()
	p.stats.MsgsSent[class]++
	p.stats.BytesSent[class] += uint64(size)
	p.statsMu.Unlock()
}

func (p *plane) countDropped(class Class) {
	p.statsMu.Lock()
	p.stats.MsgsDropped[class]++
	p.statsMu.Unlock()
}

// countShed records a queue-full backpressure shed: it is a drop (the
// message is lost) that is additionally surfaced as shedding.
func (p *plane) countShed(class Class) {
	p.statsMu.Lock()
	p.stats.MsgsDropped[class]++
	p.stats.MsgsShed[class]++
	p.statsMu.Unlock()
}

func (p *plane) countDelivered(class Class) {
	p.statsMu.Lock()
	p.stats.MsgsDelivered[class]++
	p.statsMu.Unlock()
}

// SendDirect transmits payload one hop to an adjacent neighbor. It
// reports false if the nodes are not adjacent or the sender is down.
func (p *plane) SendDirect(from, to NodeID, class Class, payload []byte) bool {
	m := p.newMessage(from, to, class, payload)
	m.From, m.To = from, to
	return p.transmit(m)
}

// Send routes payload from src to dst along the shortest path.
// Intermediate hops store-and-forward; a down or malicious intermediate
// may drop it (that is the point — omission faults on paths are part of
// the threat model, §4.2).
func (p *plane) Send(src, dst NodeID, class Class, payload []byte) bool {
	if src == dst {
		panic("network: Send to self")
	}
	next, ok := p.Topology().NextHop(src, dst)
	if !ok {
		return false
	}
	m := p.newMessage(src, dst, class, payload)
	m.From, m.To = src, next
	return p.transmit(m)
}

// newMessage carves a fresh message from the current chunk. Like nextID,
// the chunk is unlocked: Send and SendDirect run on the scheduler only.
func (p *plane) newMessage(src, dst NodeID, class Class, payload []byte) *Message {
	p.nextID++
	if len(p.msgs) == 0 {
		p.msgs = make([]Message, msgChunk)
	}
	m := &p.msgs[0]
	p.msgs = p.msgs[1:]
	*m = Message{
		ID:      p.nextID,
		Src:     src,
		Dst:     dst,
		Class:   class,
		Payload: payload,
		Sent:    p.sched.Now(),
	}
	return m
}

// transmit hands m to the hop carrier unless its sender is down.
func (p *plane) transmit(m *Message) bool {
	if p.IsDown(m.From) {
		p.countDropped(m.Class)
		return false
	}
	return p.hop(m)
}

// arrive runs on the scheduler when m reaches m.To: deliver if final, else
// pass it through m.To's relay filter (a Byzantine relay may drop or
// delay it) and forward. A down receiver and residual loss drop it.
func (p *plane) arrive(m *Message) {
	if p.IsDown(m.To) {
		p.countDropped(m.Class)
		return
	}
	if p.lossProb > 0 && p.rng.Bool(p.lossProb) {
		p.countDropped(m.Class)
		return
	}
	m.Hops++
	if m.To == m.Dst {
		p.countDelivered(m.Class)
		if h := p.handlerFor(m.To); h != nil {
			h(m)
		}
		return
	}
	relay := m.To
	if f := p.filterFor(relay); f != nil {
		fm, delay, fwd := f(m)
		if !fwd {
			p.countDropped(m.Class)
			return
		}
		m = fm
		if delay > 0 {
			p.sched.After(delay, func() { p.forward(relay, m) })
			return
		}
	}
	p.forward(relay, m)
}

// forward advances m one hop along the current shortest path from relay,
// avoiding known-down intermediates when an alternative exists.
func (p *plane) forward(relay NodeID, m *Message) {
	p.stateMu.RLock()
	path, ok := p.topo.PathAvoiding(relay, m.Dst, func(x NodeID) bool { return p.down[x] })
	p.stateMu.RUnlock()
	if !ok || len(path) < 2 {
		p.countDropped(m.Class)
		return
	}
	m.From, m.To = relay, path[1]
	p.transmit(m)
}
