package network

import (
	"sync"
	"time"

	"btr/internal/sim"
)

// Bus is the live, in-process, channel-based transport: the second
// Transport implementation, used by wall-clock deployments
// (internal/live, cmd/btrlive).
//
// Architecture: every directed link direction (and, when an evidence
// share is reserved, every class on it) owns a lane — a FIFO channel
// drained by a shaping goroutine. The lane worker sleeps each frame's
// serialization time on the wall clock (bandwidth shaping; queueing
// behind a busy lane emerges from channel FIFO order, the live analogue
// of Network's busy-until bookkeeping) and then hands delivery back to
// the scheduler after the link's propagation delay. Because deliveries
// re-enter through the scheduler, handlers run serialized with every
// other runtime callback — the Transport contract — while transmission
// itself is genuinely concurrent across lanes, like real link hardware.
//
// Concurrency discipline: Send/SendDirect must be called from scheduler
// callbacks (or before dispatch starts) — they stamp logical send times.
// The control plane (Handle, SetDown, IsDown, SetForwardFilter,
// SetWiring, Topology) is guarded by stateMu and safe from any
// goroutine: adversary drivers and live-deployment supervision mutate it
// while lanes are draining. Snapshot is safe from any goroutine. Close
// drains and joins every lane worker — the leak-free shutdown path the
// live tests pin.
type Bus struct {
	sched sim.Scheduler
	cfg   Config

	// stateMu guards the control plane: topo, handlers, filters, down.
	// Hot-path reads take the read lock; uncontended RLock is a single
	// atomic and the per-delivery cost is noise next to shaping delays.
	stateMu  sync.RWMutex
	topo     *Topology
	handlers []Handler
	filters  []ForwardFilter
	down     []bool

	// pv, when non-nil, is handed coalesced evidence batches on lane
	// goroutines before delivery is scheduled (see PreVerifier). Guarded
	// by stateMu like the rest of the control plane.
	pv PreVerifier

	lanes  map[chanKey]*busLane
	nextID uint64
	rng    *sim.RNG
	// wallNow is the pacing clock for lane throttling: the scheduler's
	// raw wall clock when available (see wallClocked), else Now.
	wallNow func() sim.Time

	statsMu sync.Mutex
	stats   Stats

	mu     sync.Mutex // guards closed and lane sends vs Close
	closed bool
	wg     sync.WaitGroup
}

// busLane is one shaped FIFO pipe: a directed link direction carrying one
// traffic class. The class is recorded so the worker and the shedding
// policy can tell evidence lanes (drop-oldest: the freshest evidence is
// the most valuable, and batch verification downstream wants recent
// records) from foreground lanes (tail-drop: stale sensor frames are
// superseded anyway).
type busLane struct {
	ch       chan busFrame
	capacity int64
	prop     sim.Time
	class    Class
}

// busFrame is one queued transmission: the message plus the modeled
// instant its hop-send was issued (the sending event's logical time).
// Serialization is accounted from that instant, not from the wall clock
// at dequeue time, so a momentarily lagging executor does not inflate
// modeled link delays and break the schedule's arrival windows.
type busFrame struct {
	m     *Message
	start sim.Time
}

// laneDepth bounds each lane's queue; a full lane drops (the live
// analogue of unbounded busy-until growth would be unbounded memory).
const laneDepth = 1024

// wallClocked is the optional scheduler capability lanes use for pacing:
// the raw wall clock, immune to the logical-time view Now presents
// while a callback is dispatching (sim.WallScheduler implements it).
// Pacing from Now would oversleep by the executor's catch-up lag.
type wallClocked interface {
	WallElapsed() sim.Time
}

// Bus implements Transport.
var _ Transport = (*Bus)(nil)

// NewBus creates the live transport over topo, delivering through sched.
// Call Close when the deployment shuts down.
func NewBus(sched sim.Scheduler, topo *Topology, cfg Config) *Bus {
	if cfg.EvidenceShare < 0 || cfg.EvidenceShare >= 1 {
		panic("network: EvidenceShare must be in [0,1)")
	}
	b := &Bus{
		sched:    sched,
		topo:     topo,
		cfg:      cfg,
		handlers: make([]Handler, topo.N),
		filters:  make([]ForwardFilter, topo.N),
		down:     make([]bool, topo.N),
		lanes:    map[chanKey]*busLane{},
		rng:      sched.RNG().Fork(),
	}
	b.wallNow = sched.Now
	if wc, ok := sched.(wallClocked); ok {
		b.wallNow = wc.WallElapsed
	}
	b.mu.Lock()
	b.syncLanes(topo)
	b.mu.Unlock()
	return b
}

// classes lists the traffic classes that get their own lane per link
// direction under the current config.
func (b *Bus) classes() []Class {
	if b.cfg.EvidenceShare == 0 {
		return []Class{ClassForeground} // single shared channel
	}
	return []Class{ClassForeground, ClassEvidence}
}

// syncLanes diffs the lane set against topo's links: lanes for new link
// directions are opened (one shaping goroutine each), lanes whose link
// vanished are closed — their workers drain any queued frames, deliver
// them under the old wiring, and exit. Caller holds b.mu.
func (b *Bus) syncLanes(topo *Topology) {
	want := map[chanKey]Link{}
	for _, l := range topo.Links {
		for _, dir := range [2][2]NodeID{{l.A, l.B}, {l.B, l.A}} {
			for _, class := range b.classes() {
				want[chanKey{dir[0], dir[1], class}] = l
			}
		}
	}
	for key, lane := range b.lanes {
		if _, keep := want[key]; !keep {
			close(lane.ch)
			delete(b.lanes, key)
		}
	}
	for key, l := range want {
		if _, have := b.lanes[key]; have {
			continue
		}
		lane := &busLane{
			ch:       make(chan busFrame, laneDepth),
			capacity: b.capacity(l, key.class),
			prop:     l.Prop,
			class:    key.class,
		}
		b.lanes[key] = lane
		b.wg.Add(1)
		go b.shape(lane)
	}
}

// capacity mirrors Network's static per-class share split.
func (b *Bus) capacity(l Link, class Class) int64 {
	share := b.cfg.EvidenceShare
	if share == 0 {
		return l.Bandwidth
	}
	frac := share
	if class == ClassForeground {
		frac = 1 - share
	}
	c := int64(float64(l.Bandwidth) * frac)
	if c < 1 {
		c = 1
	}
	return c
}

// shapeSleepSlack is the minimum backlog worth sleeping for. OS timers on
// a non-realtime kernel overshoot by ~1ms, so sleeping per micro-frame
// would inflate every serialization delay a thousandfold; instead the
// lane keeps a busy-until credit and only sleeps once the modeled backlog
// exceeds the slack. Sub-slack serialization still shapes delivery times
// (they are scheduled at the modeled instant), it just does not block the
// worker.
const shapeSleepSlack = 500 * sim.Microsecond

// shape is the lane worker: serialize (account each frame's tx time
// against the lane's busy-until credit), then schedule delivery at the
// modeled arrival instant. It coalesces: each wakeup drains the whole
// lane backlog, hands an evidence batch to the pre-verifier (bulk
// crypto, concurrent with the executor), schedules every frame at its
// exact modeled instant, and sleeps at most once per batch — under
// saturation the worker wakes O(1) times per backlog instead of once
// per frame. Modeled arrival times are identical to the one-frame-per-
// iteration loop: busy-until accounting is per frame either way, and
// the scheduler dispatches events at their modeled instants regardless
// of how early they enter the heap. Exits when the lane channel closes.
func (b *Bus) shape(lane *busLane) {
	defer b.wg.Done()
	var busyUntil sim.Time
	batch := make([]busFrame, 0, 64)
	for f := range lane.ch {
		batch = append(batch[:0], f)
	drain:
		for {
			select {
			case g, ok := <-lane.ch:
				if !ok {
					break drain // closed mid-drain; deliver what we hold
				}
				batch = append(batch, g)
			default:
				break drain
			}
		}
		if lane.class == ClassEvidence && len(batch) > 1 {
			if pv := b.preVerifier(); pv != nil {
				ms := make([]*Message, len(batch))
				for i := range batch {
					ms[i] = batch[i].m
				}
				pv(ms)
			}
		}
		for i := range batch {
			f := batch[i]
			tx := txTime(f.m.Size(), lane.capacity)
			if busyUntil < f.start {
				busyUntil = f.start
			}
			busyUntil += tx
			m := f.m
			b.sched.At(busyUntil+lane.prop, func() { b.arrive(m) })
		}
		// Throttle only when the modeled backlog runs ahead of the wall
		// clock by more than the slack; modeled arrival times stay exact
		// either way. Pacing uses the raw wall clock: the logical Now can
		// lag it while the executor catches up, and sleeping that lag too
		// would hold modeled-time deliveries out of the heap.
		if wait := busyUntil - b.wallNow(); wait > shapeSleepSlack {
			time.Sleep(time.Duration(wait) * time.Microsecond)
		}
	}
}

// Topology returns the active wiring.
func (b *Bus) Topology() *Topology {
	b.stateMu.RLock()
	defer b.stateMu.RUnlock()
	return b.topo
}

// Handle installs the delivery handler for node id. Safe from any
// goroutine (stateMu).
func (b *Bus) Handle(id NodeID, h Handler) {
	b.stateMu.Lock()
	b.handlers[id] = h
	b.stateMu.Unlock()
}

// SetForwardFilter installs a Byzantine relay filter on node id. Safe
// from any goroutine (stateMu).
func (b *Bus) SetForwardFilter(id NodeID, f ForwardFilter) {
	b.stateMu.Lock()
	b.filters[id] = f
	b.stateMu.Unlock()
}

// SetDown marks node id as crashed or repaired. Safe from any goroutine
// (stateMu).
func (b *Bus) SetDown(id NodeID, down bool) {
	b.stateMu.Lock()
	b.down[id] = down
	b.stateMu.Unlock()
}

// handlerFor / filterFor are the locked hot-path reads arrive uses.
func (b *Bus) handlerFor(id NodeID) Handler {
	b.stateMu.RLock()
	defer b.stateMu.RUnlock()
	return b.handlers[id]
}

func (b *Bus) filterFor(id NodeID) ForwardFilter {
	b.stateMu.RLock()
	defer b.stateMu.RUnlock()
	return b.filters[id]
}

// SetPreVerifier installs pv (nil uninstalls). Safe from any goroutine;
// lanes pick the change up on their next batch.
func (b *Bus) SetPreVerifier(pv PreVerifier) {
	b.stateMu.Lock()
	b.pv = pv
	b.stateMu.Unlock()
}

func (b *Bus) preVerifier() PreVerifier {
	b.stateMu.RLock()
	defer b.stateMu.RUnlock()
	return b.pv
}

// SetWiring replaces the active wiring at runtime: lanes for removed
// links are torn down (workers drain and exit), lanes for added links
// are spun up. Safe from any goroutine — it may race in-flight
// deliveries, which complete under the wiring they were sent on;
// membership epochs call it at activation.
func (b *Bus) SetWiring(t *Topology) {
	b.stateMu.Lock()
	if t.N != b.topo.N {
		b.stateMu.Unlock()
		panic("network: SetWiring must keep the node-slot count")
	}
	b.topo = t
	b.stateMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.syncLanes(t)
}

// LaneCount returns the number of live shaping lanes (link directions x
// classes). Teardown tests use it to prove retired links' lanes are
// actually gone, not merely idle.
func (b *Bus) LaneCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.lanes)
}

// IsDown reports whether id is crashed. Safe from any goroutine.
func (b *Bus) IsDown(id NodeID) bool {
	b.stateMu.RLock()
	defer b.stateMu.RUnlock()
	return b.down[id]
}

// Snapshot returns the traffic counters accumulated so far.
func (b *Bus) Snapshot() Stats {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	return b.stats
}

func (b *Bus) countSent(class Class, size int64) {
	b.statsMu.Lock()
	b.stats.MsgsSent[class]++
	b.stats.BytesSent[class] += uint64(size)
	b.statsMu.Unlock()
}

func (b *Bus) countDropped(class Class) {
	b.statsMu.Lock()
	b.stats.MsgsDropped[class]++
	b.statsMu.Unlock()
}

// countShed records a queue-full backpressure shed: it is a drop (the
// message is lost) that is additionally surfaced as shedding.
func (b *Bus) countShed(class Class) {
	b.statsMu.Lock()
	b.stats.MsgsDropped[class]++
	b.stats.MsgsShed[class]++
	b.statsMu.Unlock()
}

func (b *Bus) countDelivered(class Class) {
	b.statsMu.Lock()
	b.stats.MsgsDelivered[class]++
	b.statsMu.Unlock()
}

// SendDirect transmits payload one hop to an adjacent neighbor.
func (b *Bus) SendDirect(from, to NodeID, class Class, payload []byte) bool {
	m := b.newMessage(from, to, class, payload)
	m.From, m.To = from, to
	return b.transmit(m)
}

// Send routes payload from src to dst along the static shortest path with
// store-and-forward at intermediate hops.
func (b *Bus) Send(src, dst NodeID, class Class, payload []byte) bool {
	if src == dst {
		panic("network: Send to self")
	}
	next, ok := b.Topology().NextHop(src, dst)
	if !ok {
		return false
	}
	m := b.newMessage(src, dst, class, payload)
	m.From, m.To = src, next
	return b.transmit(m)
}

func (b *Bus) newMessage(src, dst NodeID, class Class, payload []byte) *Message {
	b.nextID++
	return &Message{
		ID:      b.nextID,
		Src:     src,
		Dst:     dst,
		Class:   class,
		Payload: payload,
		Sent:    b.sched.Now(),
	}
}

// transmit enqueues m on its hop's lane. A full lane sheds by class
// policy instead of silently tail-dropping: evidence lanes evict their
// oldest queued frame so the newest evidence still gets through (batch
// verification and conviction want fresh records; under sustained flood
// the stale backlog is the right victim), foreground lanes shed the
// arriving frame (periodic dataflow supersedes itself). Every shed is
// surfaced in MsgsShed as well as MsgsDropped.
func (b *Bus) transmit(m *Message) bool {
	if b.IsDown(m.From) {
		b.countDropped(m.Class)
		return false
	}
	key := chanKey{m.From, m.To, m.Class}
	if b.cfg.EvidenceShare == 0 {
		key.class = ClassForeground // single shared channel
	}
	b.mu.Lock()
	lane, ok := b.lanes[key]
	if !ok {
		b.mu.Unlock()
		b.countDropped(m.Class)
		return false
	}
	if b.closed {
		b.mu.Unlock()
		return false
	}
	f := busFrame{m: m, start: b.sched.Now()}
	select {
	case lane.ch <- f:
		b.mu.Unlock()
		b.countSent(m.Class, m.Size())
		return true
	default:
	}
	if lane.class == ClassEvidence {
		// Evict the oldest queued frame, then retry once. The worker may
		// drain the queue concurrently, in which case the retry simply
		// succeeds without an eviction.
		var evicted *Message
		select {
		case old := <-lane.ch:
			evicted = old.m
		default:
		}
		select {
		case lane.ch <- f:
			b.mu.Unlock()
			if evicted != nil {
				b.countShed(evicted.Class)
			}
			b.countSent(m.Class, m.Size())
			return true
		default:
		}
		b.mu.Unlock()
		if evicted != nil {
			b.countShed(evicted.Class)
		}
		b.countShed(m.Class)
		return false
	}
	b.mu.Unlock()
	b.countShed(m.Class)
	return false
}

// arrive runs on the scheduler: deliver if final, else forward — the same
// semantics as the simulated Network, including Byzantine relay filters
// and residual loss.
func (b *Bus) arrive(m *Message) {
	if b.IsDown(m.To) {
		b.countDropped(m.Class)
		return
	}
	if b.cfg.LossProb > 0 && b.rng.Bool(b.cfg.LossProb) {
		b.countDropped(m.Class)
		return
	}
	m.Hops++
	if m.To == m.Dst {
		b.countDelivered(m.Class)
		if h := b.handlerFor(m.To); h != nil {
			h(m)
		}
		return
	}
	relay := m.To
	if f := b.filterFor(relay); f != nil {
		fm, delay, fwd := f(m)
		if !fwd {
			b.countDropped(m.Class)
			return
		}
		m = fm
		if delay > 0 {
			b.sched.After(delay, func() { b.forward(relay, m) })
			return
		}
	}
	b.forward(relay, m)
}

// forward advances m one hop along the current shortest path from relay,
// avoiding known-down intermediates when an alternative exists.
func (b *Bus) forward(relay NodeID, m *Message) {
	path, ok := b.Topology().PathAvoiding(relay, m.Dst, func(x NodeID) bool { return b.IsDown(x) })
	if !ok || len(path) < 2 {
		b.countDropped(m.Class)
		return
	}
	m.From, m.To = relay, path[1]
	b.transmit(m)
}

// Close shuts the transport down: no further sends are accepted, every
// lane drains, and all shaping goroutines are joined before Close
// returns. Call it after the driving scheduler has stopped dispatching
// (late deliveries the lanes hand to a stopped scheduler are discarded
// there).
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	for _, lane := range b.lanes {
		close(lane.ch)
	}
	b.mu.Unlock()
	b.wg.Wait()
}
