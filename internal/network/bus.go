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
// Everything but the lanes — control plane, counters, Send/SendDirect,
// delivery and relaying — is the shared plane, with the concurrency
// contract the Transport doc states; SetWiring is safe from any
// goroutine too. Close drains and joins every lane worker — the
// leak-free shutdown path the live tests pin.
type Bus struct {
	plane
	cfg Config

	lanes map[chanKey]*busLane
	// wallNow is the pacing clock for lane throttling: the scheduler's
	// raw wall clock when available (see wallClocked), else Now.
	wallNow func() sim.Time

	mu     sync.Mutex // guards closed and lane sends vs Close
	closed bool
	wg     sync.WaitGroup
}

// busLane is one shaped FIFO pipe: a directed link direction carrying one
// traffic class. The class is recorded so the worker and the shedding
// policy can tell evidence lanes (drop-oldest: the freshest evidence is
// the most valuable) from foreground lanes (tail-drop: stale sensor
// frames are superseded anyway).
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
	checkShare(cfg.EvidenceShare)
	b := &Bus{cfg: cfg, lanes: map[chanKey]*busLane{}}
	b.init(sched, topo, cfg.LossProb, b.hop)
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
			capacity: ClassCapacity(l.Bandwidth, b.cfg.EvidenceShare, key.class),
			prop:     l.Prop,
			class:    key.class,
		}
		b.lanes[key] = lane
		b.wg.Add(1)
		go b.shape(lane)
	}
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
// lane backlog, schedules every frame at its exact modeled instant, and
// sleeps at most once per batch — under saturation the worker wakes O(1)
// times per backlog instead of once per frame. Modeled arrival times are
// identical to the one-frame-per-iteration loop: busy-until accounting is
// per frame either way, and the scheduler dispatches events at their
// modeled instants regardless of how early they enter the heap. Exits
// when the lane channel closes.
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

// SetWiring replaces the active wiring at runtime: lanes for removed
// links are torn down (workers drain and exit), lanes for added links
// are spun up. Safe from any goroutine — it may race in-flight
// deliveries, which complete under the wiring they were sent on;
// membership epochs call it at activation.
func (b *Bus) SetWiring(t *Topology) {
	b.setTopology(t)
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

// hop enqueues m on its lane. A full lane sheds by class
// policy instead of silently tail-dropping: evidence lanes evict their
// oldest queued frame so the newest evidence still gets through
// (conviction wants fresh records; under sustained flood the stale
// backlog is the right victim), foreground lanes shed the
// arriving frame (periodic dataflow supersedes itself). Every shed is
// surfaced in MsgsShed as well as MsgsDropped.
func (b *Bus) hop(m *Message) bool {
	b.mu.Lock()
	lane, ok := b.lanes[channelKey(m, b.cfg.EvidenceShare)]
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
