package network

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"btr/internal/sim"
	"btr/internal/wire"
)

// TCPBus is the real-socket transport: the third Transport
// implementation, used by multi-process deployments where each node is
// its own OS process (cmd/btrlive -node). It carries exactly the traffic
// the in-process transports carry, framed by internal/wire, over real
// TCP connections — so within-R verdicts measured on it cross real
// kernels, NICs (loopback or otherwise), and process boundaries.
//
// Each process hosts one TCPBus for its own node slot ("self"). The
// instance still implements the full Transport surface: Send routes
// multi-hop traffic with store-and-forward at self, handlers for other
// slots are simply never invoked locally.
//
// Connection model — directed, like Network's channels: for every
// peer adjacent to self in the active wiring, a link supervisor
// goroutine owns the OUTGOING connection (dial with exponential backoff,
// wire.Hello handshake, then a coalescing write loop draining a bounded
// per-class backlog with evidence priority — the reserved-share
// analogue — into batch frames, one write per wakeup, plus a heartbeat
// ticker for idle gaps). A full backlog sheds class-aware rather than
// tail-dropping silently: heartbeats are never queued, foreground
// tail-drops at its QueueDepth share, and evidence evicts the oldest
// queued foreground (then oldest evidence) — heartbeats shed first,
// evidence last, every shed surfaced in Stats.MsgsShed and per-link
// counters. INCOMING traffic arrives on connections peers dialed; the
// accept loop validates the Hello (magic, version, cluster tag,
// adjacency) and a per-connection reader hands message and batch frames
// back to the scheduler, so handlers run serialized with all other
// runtime callbacks — the Transport contract.
//
// Reconnect state machine (per outgoing link):
//
//	IDLE --dial ok, hello sent--> CONNECTED --write/deadline error--> BACKOFF
//	BACKOFF --sleep (exponential, DialMin..DialMax)--> IDLE
//	any --SetWiring drops link / Close--> GONE (goroutine exits)
//	any --partitioned--> REFUSED (idle poll until healed)
//
// Liveness: every frame (or heartbeat) refreshes the read deadline on
// inbound connections and the write deadline bounds outbound stalls, so
// a peer that is SIGKILLed, SIGSTOPped, or partitioned is detected
// within cfg.Liveness and the supervisor starts redialing — supervised
// reconnect is what lets a killed-and-restarted node rejoin.
//
// Userspace partitioning (SetPeerRefused) severs a peer without iptables:
// existing connections both ways are closed, inbound Hellos from the
// peer are refused, and the outgoing supervisor idles until healed.
//
// Everything but the links — control plane, counters, Send/SendDirect,
// delivery and relaying — is the shared plane, with the concurrency
// contract the Transport doc states; SetWiring, SetPeerRefused,
// LinkCount, ConnectedCount and LinkStats are safe from any goroutine
// too. Close joins every supervisor, reader, and the accept loop.
type TCPBus struct {
	plane
	cfg   TCPConfig
	self  NodeID
	addrs []string
	lis   net.Listener

	// mu guards the link plane: outgoing supervisors, registered inbound
	// connections (latest per peer — a new Hello supersedes and closes
	// the old connection), the partition set, and closed.
	mu      sync.Mutex
	links   map[NodeID]*tcpLink
	inbound map[NodeID]net.Conn
	refused map[NodeID]bool
	closed  bool

	wg sync.WaitGroup
}

// TCPConfig tunes the real-socket transport.
type TCPConfig struct {
	Config // EvidenceShare>0 keeps evidence on its own priority queue; LossProb is applied at delivery

	// Cluster is the deployment tag carried in every Hello (derive it
	// from the seed); connections from another cluster are refused.
	Cluster uint64
	// QueueDepth bounds each link's foreground send backlog (evidence may
	// borrow up to one extra QueueDepth on top); a full backlog sheds by
	// class policy (counted in Snapshot MsgsShed/MsgsDropped and per-link
	// Drops/Shed).
	QueueDepth int
	// DialMin / DialMax bound the exponential redial backoff.
	DialMin, DialMax time.Duration
	// Heartbeat is the idle keepalive interval on outgoing connections.
	Heartbeat time.Duration
	// Liveness is the read/write deadline: a connection silent (or
	// stalled) this long is declared dead and redialed.
	Liveness time.Duration
}

// DefaultTCPConfig returns timings suited to loopback deployments with
// period-scale (hundreds of ms) recovery bounds.
func DefaultTCPConfig(cluster uint64) TCPConfig {
	return TCPConfig{
		Config:     DefaultConfig(),
		Cluster:    cluster,
		QueueDepth: 1024,
		DialMin:    5 * time.Millisecond,
		DialMax:    250 * time.Millisecond,
		Heartbeat:  25 * time.Millisecond,
		Liveness:   200 * time.Millisecond,
	}
}

// tcpLink is one outgoing link supervisor's shared state. Outbound
// messages wait in pend (decoded, per class) rather than as pre-encoded
// frames: the write loop drains the whole backlog per wakeup and
// coalesces it into batch frames, so encoding is deferred to the moment
// the frame boundary is known. The backlog survives reconnects (FIFO
// across reconnects) and is bounded by a shared per-link budget with
// class-aware shedding (see enqueue).
type tcpLink struct {
	peer NodeID
	addr string
	stop chan struct{}
	wake chan struct{} // cap 1: pend gained work; write loop should drain

	mu            sync.Mutex
	pend          [numClasses][]wire.Msg
	conn          net.Conn // current outgoing connection, nil while down
	dials         int
	reconnects    int
	drops         uint64 // every message lost at this link's queue
	shed          uint64 // subset of drops: backpressure sheds
	everConnected bool
}

// LinkStat is a point-in-time view of one outgoing link's supervision
// counters.
type LinkStat struct {
	Peer       NodeID
	Dials      int // dial attempts (successful or not)
	Reconnects int // connections lost after being established
	Drops      uint64
	Shed       uint64 // subset of Drops: queue-full backpressure sheds
	Connected  bool
}

// TCPBus implements Transport.
var _ Transport = (*TCPBus)(nil)

// NewTCPBus creates the real-socket transport for node self, accepting
// on lis (which the caller bound — possibly to port 0 — and whose final
// address appears in addrs[self]). addrs maps every node slot to its
// dialable address. Supervisors for self's adjacency in topo start
// immediately; deliveries queue into sched and run once it dispatches.
func NewTCPBus(sched sim.Scheduler, topo *Topology, self NodeID, addrs []string, lis net.Listener, cfg TCPConfig) *TCPBus {
	if len(addrs) != topo.N {
		panic(fmt.Sprintf("network: %d addrs for %d nodes", len(addrs), topo.N))
	}
	if cfg.QueueDepth <= 0 || cfg.DialMin <= 0 || cfg.DialMax < cfg.DialMin || cfg.Heartbeat <= 0 || cfg.Liveness <= 0 {
		panic("network: incomplete TCPConfig (use DefaultTCPConfig)")
	}
	b := &TCPBus{
		cfg:     cfg,
		self:    self,
		addrs:   addrs,
		lis:     lis,
		links:   map[NodeID]*tcpLink{},
		inbound: map[NodeID]net.Conn{},
		refused: map[NodeID]bool{},
	}
	b.init(sched, topo, cfg.LossProb, b.hop)
	b.mu.Lock()
	b.syncLinks(topo)
	b.mu.Unlock()
	b.wg.Add(1)
	go b.acceptLoop()
	return b
}

// syncLinks diffs outgoing supervisors against self's adjacency in topo:
// new adjacent peers get a supervisor, supervisors for vanished
// adjacencies are stopped (their connection closed, goroutine exits).
// Caller holds b.mu.
func (b *TCPBus) syncLinks(topo *Topology) {
	want := map[NodeID]bool{}
	for _, p := range topo.Neighbors(b.self) {
		want[p] = true
	}
	for peer, l := range b.links {
		if !want[peer] {
			b.stopLink(l)
			delete(b.links, peer)
		}
	}
	for peer := range want {
		if _, have := b.links[peer]; have {
			continue
		}
		l := &tcpLink{
			peer: peer,
			addr: b.addrs[peer],
			stop: make(chan struct{}),
			wake: make(chan struct{}, 1),
		}
		b.links[peer] = l
		b.wg.Add(1)
		go b.runLink(l)
	}
}

// stopLink signals the supervisor to exit and severs its connection.
func (b *TCPBus) stopLink(l *tcpLink) {
	close(l.stop)
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.mu.Unlock()
}

// runLink is the per-peer outgoing supervisor: dial with exponential
// backoff, handshake, drain the send queues until the connection dies,
// repeat. Exits when the link is stopped.
func (b *TCPBus) runLink(l *tcpLink) {
	defer b.wg.Done()
	backoff := b.cfg.DialMin
	for {
		select {
		case <-l.stop:
			return
		default:
		}
		if b.peerRefused(l.peer) {
			// Partitioned: idle (polling) until healed or stopped.
			if !sleepOrStop(l.stop, b.cfg.DialMin) {
				return
			}
			continue
		}
		l.mu.Lock()
		l.dials++
		l.mu.Unlock()
		conn, err := net.DialTimeout("tcp", l.addr, b.cfg.Liveness)
		if err == nil {
			conn.SetWriteDeadline(time.Now().Add(b.cfg.Liveness))
			_, err = conn.Write(wire.AppendHello(nil, wire.Hello{Cluster: b.cfg.Cluster, Node: uint32(b.self)}))
			if err != nil {
				conn.Close()
			}
		}
		if err != nil {
			if !sleepOrStop(l.stop, backoff) {
				return
			}
			if backoff *= 2; backoff > b.cfg.DialMax {
				backoff = b.cfg.DialMax
			}
			continue
		}
		backoff = b.cfg.DialMin
		// Install the connection under b.mu, re-checking the partition: a
		// SetPeerRefused that landed while this dial was in flight found
		// no connection to close, so the refusal must be honored here.
		b.mu.Lock()
		refused := b.refused[l.peer]
		if !refused {
			l.mu.Lock()
			if l.everConnected {
				l.reconnects++
			}
			l.everConnected = true
			l.conn = conn
			l.mu.Unlock()
		}
		b.mu.Unlock()
		if refused {
			conn.Close()
			continue
		}
		b.writeLoop(l, conn)
		conn.Close()
		l.mu.Lock()
		l.conn = nil
		l.mu.Unlock()
		select {
		case <-l.stop:
			return
		default:
		}
	}
}

var heartbeatFrame = wire.AppendHeartbeat(nil)

// writeLoop drains the link's backlog onto conn until a write fails or
// the link stops. It coalesces: each wakeup takes the ENTIRE pending
// backlog — evidence first (the reserved-share analogue: foreground
// backlog can never starve evidence), then foreground — encodes it into
// one buffer (a single msg frame for a lone message, batch frames
// otherwise, chunked at wire.MaxFrame), and issues one conn.Write per
// wakeup: under saturation the syscall and frame-header cost amortize
// over the whole backlog instead of being paid per message. Heartbeats
// are only ever written when the backlog is empty — the keepalive is the
// first traffic shed under load, by construction. A failed write hands
// its batch to writeFailed.
func (b *TCPBus) writeLoop(l *tcpLink, conn net.Conn) {
	hb := time.NewTicker(b.cfg.Heartbeat)
	defer hb.Stop()
	var buf []byte
	var batch []wire.Msg
	for {
		select {
		case <-l.stop:
			return
		default:
		}
		l.mu.Lock()
		nEv := len(l.pend[ClassEvidence])
		batch = append(batch[:0], l.pend[ClassEvidence]...)
		batch = append(batch, l.pend[ClassForeground]...)
		l.pend[ClassEvidence] = l.pend[ClassEvidence][:0]
		l.pend[ClassForeground] = l.pend[ClassForeground][:0]
		l.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-l.stop:
				return
			case <-l.wake:
				continue
			case <-hb.C:
				conn.SetWriteDeadline(time.Now().Add(b.cfg.Liveness))
				if _, err := conn.Write(heartbeatFrame); err != nil {
					return
				}
				continue
			}
		}
		buf = buf[:0]
		if len(batch) == 1 {
			var err error
			buf, err = wire.AppendMsg(buf, batch[0])
			if err != nil {
				continue // unreachable: enqueue applies the encode-side guard
			}
		} else {
			rest := batch
			for len(rest) > 0 {
				var n int
				var err error
				buf, n, err = wire.AppendBatch(buf, rest)
				if err != nil || n == 0 {
					break // unreachable: enqueue applies the encode-side guard
				}
				rest = rest[n:]
			}
		}
		conn.SetWriteDeadline(time.Now().Add(b.cfg.Liveness))
		if n, err := conn.Write(buf); err != nil {
			b.writeFailed(l, batch, nEv, n)
			return
		}
	}
}

// writeFailed settles a batch (its first nEv messages evidence) whose
// write failed after written bytes. If none reached the socket, the batch
// goes back to the head of the backlog, ahead of anything queued since
// and in class order, for the next connection to send: the backlog
// survives reconnects. If some did, the peer may already hold part of
// the batch and requeueing could duplicate it, so every message of the
// batch is counted dropped instead.
func (b *TCPBus) writeFailed(l *tcpLink, batch []wire.Msg, nEv, written int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if written == 0 {
		l.pend[ClassEvidence] = append(append([]wire.Msg(nil), batch[:nEv]...), l.pend[ClassEvidence]...)
		l.pend[ClassForeground] = append(append([]wire.Msg(nil), batch[nEv:]...), l.pend[ClassForeground]...)
		return
	}
	l.drops += uint64(len(batch))
	for _, wm := range batch {
		b.countDropped(Class(wm.Class))
	}
}

// acceptLoop admits inbound connections until the listener closes.
func (b *TCPBus) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.lis.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go b.serveConn(conn)
	}
}

// serveConn validates one inbound connection's Hello and then feeds its
// message frames back into the scheduler. Any protocol violation, a
// partitioned or non-adjacent peer, or liveness expiry closes the
// connection (the dialer's supervisor handles redial).
func (b *TCPBus) serveConn(conn net.Conn) {
	defer b.wg.Done()
	defer conn.Close()
	r := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(b.cfg.Liveness))
	typ, body, err := wire.ReadFrame(r)
	if err != nil || typ != wire.TypeHello {
		return
	}
	h, err := wire.ParseHello(body)
	if err != nil || h.Cluster != b.cfg.Cluster || int(h.Node) >= len(b.addrs) || NodeID(h.Node) == b.self {
		return
	}
	peer := NodeID(h.Node)
	b.mu.Lock()
	if b.closed || b.refused[peer] {
		b.mu.Unlock()
		return
	}
	// Close-on-replace: when a redialing peer establishes a new
	// connection, any stale one (whose reader may still be draining
	// kernel-buffered frames for up to cfg.Liveness) is severed and
	// superseded. Staleness is re-checked at dispatch time below, so a
	// superseded reader can never deliver behind the replacement —
	// per-(link, class) FIFO holds across reconnects, at the cost of
	// dropping the old connection's in-flight tail.
	if old, ok := b.inbound[peer]; ok {
		old.Close()
	}
	b.inbound[peer] = conn
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		if b.inbound[peer] == conn {
			delete(b.inbound, peer)
		}
		b.mu.Unlock()
	}()
	var last sim.Time // dispatch time of this connection's previous frame
	for {
		conn.SetReadDeadline(time.Now().Add(b.cfg.Liveness))
		typ, body, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		switch typ {
		case wire.TypeHeartbeat:
			// liveness only; the deadline refresh above is the effect
		case wire.TypeMsg:
			wm, err := wire.ParseMsg(body)
			if err != nil {
				return
			}
			m, ok := b.inboundMessage(wm)
			if !ok {
				return // protocol violation
			}
			if m == nil {
				continue // misrouted; drop
			}
			b.dispatchInbound(peer, conn, []*Message{m}, &last)
		case wire.TypeBatch:
			wms, err := wire.ParseBatch(body)
			if err != nil {
				return
			}
			ms := make([]*Message, 0, len(wms))
			for _, wm := range wms {
				m, ok := b.inboundMessage(wm)
				if !ok {
					return // protocol violation severs, even mid-batch
				}
				if m == nil {
					continue // misrouted entry; skip it, keep the rest
				}
				ms = append(ms, m)
			}
			if len(ms) == 0 {
				continue
			}
			b.dispatchInbound(peer, conn, ms, &last)
		default:
			return
		}
	}
}

// inboundMessage range-checks one decoded wire message and converts it.
// Every field read off the wire is checked before it can index anything:
// class and node IDs index fixed-size arrays downstream (stats, queues,
// handlers), so a crafted frame from a Byzantine peer holding the
// cluster tag must sever the connection, not panic a correct node.
// Returns (nil, false) on a protocol violation, (nil, true) for a
// misrouted-but-well-formed message (skip it), and (m, true) otherwise.
func (b *TCPBus) inboundMessage(wm wire.Msg) (*Message, bool) {
	if wm.Class >= uint8(numClasses) ||
		int(wm.Src) >= len(b.addrs) || int(wm.Dst) >= len(b.addrs) ||
		int(wm.From) >= len(b.addrs) || int(wm.To) >= len(b.addrs) {
		return nil, false
	}
	if NodeID(wm.To) != b.self {
		return nil, true
	}
	return &Message{
		Src:     NodeID(wm.Src),
		Dst:     NodeID(wm.Dst),
		From:    NodeID(wm.From),
		To:      NodeID(wm.To),
		Class:   Class(wm.Class),
		Payload: wm.Payload,
		Hops:    int(wm.Hops),
		Sent:    b.sched.Now(),
	}, true
}

// dispatchInbound hands one read batch to the scheduler as ONE event so
// handlers serialize with every other runtime callback. Per-(link,
// class) FIFO holds because one connection's reader schedules at
// non-decreasing times (*last clamps them: a wall scheduler's Now reads
// the executor's logical cursor while a callback dispatches, which can
// lie behind the wall time the previous frame was scheduled at), the
// scheduler dispatches same-time events in insertion order, a batch
// event delivers its entries in order, and a frame from a superseded
// connection is dropped at dispatch rather than delivered behind its
// replacement's. No payload is inspected here: signature checks happen
// only in the handler, after its per-neighbor budget.
func (b *TCPBus) dispatchInbound(peer NodeID, conn net.Conn, ms []*Message, last *sim.Time) {
	*last = max(*last, b.sched.Now())
	b.sched.At(*last, func() {
		if b.staleInbound(peer, conn) {
			for _, m := range ms {
				b.countDropped(m.Class)
			}
			return
		}
		for _, m := range ms {
			b.arrive(m)
		}
	})
}

// staleInbound reports whether conn has been superseded (or dropped) as
// peer's registered inbound connection. Checked at dispatch time, which
// the scheduler serializes: a replacement connection registers before
// reading its first frame, so once any of its frames has been delivered,
// every frame still queued from the old connection fails this check and
// is dropped instead of delivered out of order.
func (b *TCPBus) staleInbound(peer NodeID, conn net.Conn) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inbound[peer] != conn
}

// SetWiring replaces the active wiring: supervisors for links self lost
// are torn down (connections closed, goroutines exit), supervisors for
// new adjacencies are spun up and start dialing. Safe from any
// goroutine; traffic already queued completes or is dropped with the
// connection.
func (b *TCPBus) SetWiring(t *Topology) {
	b.setTopology(t)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.syncLinks(t)
	// Sever inbound connections from peers no longer adjacent; their
	// supervisors (on the peer) are being stopped by its own SetWiring,
	// but a one-sided view must not keep accepting their traffic.
	adj := map[NodeID]bool{}
	for _, p := range t.Neighbors(b.self) {
		adj[p] = true
	}
	for peer, conn := range b.inbound {
		if !adj[peer] {
			conn.Close()
		}
	}
}

// SetPeerRefused partitions (refused=true) or heals (false) the link to
// peer in userspace: existing connections both ways are closed, inbound
// Hellos from peer are rejected, and the outgoing supervisor idles until
// healed. Safe from any goroutine.
//
// The refusal is one-sided: it does not stop peer's own supervisor,
// which keeps redialing self every DialMin. The peer's dial and Hello
// write succeed before self's reader rejects the Hello, so on the
// peer's side each accepted dial counts as connected (ConnectedCount,
// Reconnects) until the refusal closes it and a write fails. A clean
// partition refuses on both ends.
func (b *TCPBus) SetPeerRefused(peer NodeID, refused bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refused[peer] = refused
	if !refused {
		return
	}
	if l, ok := b.links[peer]; ok {
		l.mu.Lock()
		if l.conn != nil {
			l.conn.Close()
		}
		l.mu.Unlock()
	}
	if conn, ok := b.inbound[peer]; ok {
		conn.Close()
	}
}

func (b *TCPBus) peerRefused(peer NodeID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.refused[peer]
}

// LinkCount returns the number of outgoing link supervisors, pinned by
// SetWiring convergence tests.
func (b *TCPBus) LinkCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.links)
}

// ConnectedCount returns how many outgoing links currently hold an
// established connection.
func (b *TCPBus) ConnectedCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, l := range b.links {
		l.mu.Lock()
		if l.conn != nil {
			n++
		}
		l.mu.Unlock()
	}
	return n
}

// LinkStats returns per-peer supervision counters for every outgoing
// link (order unspecified).
func (b *TCPBus) LinkStats() []LinkStat {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]LinkStat, 0, len(b.links))
	for _, l := range b.links {
		l.mu.Lock()
		out = append(out, LinkStat{
			Peer:       l.peer,
			Dials:      l.dials,
			Reconnects: l.reconnects,
			Drops:      l.drops,
			Shed:       l.shed,
			Connected:  l.conn != nil,
		})
		l.mu.Unlock()
	}
	return out
}

// hop enqueues m on the outgoing link to m.To for the coalescing write
// loop to encode. A missing link (not adjacent / not wired) or an
// oversize payload (the wire codec's encode-side guard, applied here
// because encoding is deferred past the queue) drops with accounting; a
// full queue sheds by class policy (see enqueue).
func (b *TCPBus) hop(m *Message) bool {
	if m.From != b.self {
		// Only self's traffic leaves this process.
		b.countDropped(m.Class)
		return false
	}
	b.mu.Lock()
	l, ok := b.links[m.To]
	if !ok || b.closed {
		b.mu.Unlock()
		b.countDropped(m.Class)
		return false
	}
	b.mu.Unlock()
	if len(m.Payload) > wire.MaxMsgPayload {
		b.countDropped(m.Class)
		return false
	}
	qc := m.Class
	if b.cfg.EvidenceShare == 0 {
		qc = ClassForeground // single shared queue
	}
	if !b.enqueue(l, qc, wire.Msg{
		Class:   uint8(m.Class),
		Src:     uint32(m.Src),
		Dst:     uint32(m.Dst),
		From:    uint32(m.From),
		To:      uint32(m.To),
		Hops:    uint16(m.Hops),
		Payload: m.Payload,
	}) {
		b.countShed(m.Class)
		return false
	}
	return true
}

// enqueue appends wm to link l's class-qc backlog under the link's
// budget, shedding class-aware when full, and wakes the write loop. The
// shedding order is the priority order inverted — least valuable
// traffic goes first:
//
//   - Heartbeats are never queued at all (the write loop emits them only
//     when idle), so keepalive chatter is structurally the first shed.
//   - Foreground is capped at QueueDepth; an arriving foreground message
//     over the cap sheds ITSELF (tail-drop: periodic dataflow supersedes
//     itself, and the pinned queue-capacity semantics keep foreground's
//     budget exactly QueueDepth).
//   - Evidence may additionally borrow foreground's budget: at the
//     shared ceiling it first evicts the OLDEST queued foreground
//     message, and only when the entire budget is evidence does it evict
//     the oldest evidence (drop-oldest: the freshest records are the
//     ones conviction wants).
//
// Every shed is counted on the link (drops, shed) and, for evicted
// victims, against the victim's own class in the transport stats; the
// caller accounts the rejected message itself. An accepted message is
// counted as sent here, while l.mu still hides it from the write loop:
// counted any later, the peer could deliver it before the sender's
// Snapshot shows it sent.
func (b *TCPBus) enqueue(l *tcpLink, qc Class, wm wire.Msg) bool {
	budget := b.cfg.QueueDepth
	if b.cfg.EvidenceShare != 0 {
		budget *= int(numClasses)
	}
	l.mu.Lock()
	accepted := true
	var evicted *wire.Msg
	if qc == ClassForeground {
		if len(l.pend[ClassForeground]) >= b.cfg.QueueDepth {
			accepted = false
		}
	} else if len(l.pend[ClassForeground])+len(l.pend[ClassEvidence]) >= budget {
		victim := ClassForeground
		if len(l.pend[ClassForeground]) == 0 {
			victim = ClassEvidence
		}
		q := l.pend[victim]
		old := q[0]
		evicted = &old
		copy(q, q[1:])
		l.pend[victim] = q[:len(q)-1]
	}
	if accepted {
		l.pend[qc] = append(l.pend[qc], wm)
		b.countSent(Class(wm.Class), int64(len(wm.Payload))+headerBytes)
	}
	if !accepted || evicted != nil {
		l.drops++
		l.shed++
	}
	l.mu.Unlock()
	if evicted != nil {
		b.countShed(Class(evicted.Class))
	}
	if accepted {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	return accepted
}

// Close shuts the transport down: the listener stops accepting, every
// connection is severed, and all supervisors and readers are joined
// before Close returns.
func (b *TCPBus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.lis.Close()
	for _, l := range b.links {
		b.stopLink(l)
	}
	b.links = map[NodeID]*tcpLink{}
	for _, conn := range b.inbound {
		conn.Close()
	}
	b.mu.Unlock()
	b.wg.Wait()
}

// sleepOrStop sleeps d, returning false early if stop closes.
func sleepOrStop(stop chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-stop:
		return false
	case <-t.C:
		return true
	}
}
