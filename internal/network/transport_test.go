package network

import (
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
	"time"

	"btr/internal/sim"
)

// The transport contract suite: each behaviour the shared plane owns runs
// once per Transport implementation, through one fixture that hides how
// the implementation is driven.

// transportFixture is one deployment of a transport over a topology.
type transportFixture struct {
	sched sim.Scheduler
	// hosts[id] is the instance carrying node id's sends, relaying and
	// deliveries: one shared instance in-process, one per node for TCPBus.
	hosts []Transport
	// run executes f as a scheduler callback and returns once it ran (on
	// the simulated network, once all traffic it caused has settled).
	run func(f func())
	// await reports whether cond holds, polling for it on live transports.
	await func(cond func() bool) bool

	mu  sync.Mutex
	got []delivery
}

type delivery struct {
	m  Message
	at sim.Time
}

var transportKinds = []struct {
	name string
	boot func(t *testing.T, topo *Topology) *transportFixture
}{
	{"network", func(t *testing.T, topo *Topology) *transportFixture {
		k := sim.NewKernel(1)
		nw := New(k, topo, DefaultConfig())
		run := func(f func()) { k.At(k.Now(), f); k.RunAll() }
		return newTransportFixture(k, topo, func(NodeID) Transport { return nw }, run, func(cond func() bool) bool { return cond() })
	}},
	{"wall", func(t *testing.T, topo *Topology) *transportFixture {
		w, nw := wallNetwork(t, topo)
		return wallTransportFixture(t, w, topo, func(NodeID) Transport { return nw })
	}},
	{"tcpbus", tcpBusTransportFixture},
}

// wallNetwork is the live in-process transport: the simulated Network
// driven by a wall scheduler. Cleanup closes the scheduler and asserts
// leak-free shutdown.
func wallNetwork(t *testing.T, topo *Topology) (*sim.WallScheduler, *Network) {
	t.Helper()
	before := runtime.NumGoroutine()
	w := sim.NewWallScheduler(1)
	t.Cleanup(func() {
		w.Close()
		checkNoLeak(t, before, "wall scheduler")
	})
	return w, New(w, topo, DefaultConfig())
}

// checkNoLeak fails t if the goroutine count does not settle back to
// before within a few seconds of a transport's shutdown.
func checkNoLeak(t *testing.T, before int, what string) {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak after %s shutdown: %d before, %d after", what, before, g)
	}
}

// tcpBusTransportFixture boots one TCPBus per node, all driven by one
// scheduler so times taken at different nodes share one clock.
func tcpBusTransportFixture(t *testing.T, topo *Topology) *transportFixture {
	w := sim.NewWallScheduler(1)
	scheds := make([]*sim.WallScheduler, topo.N)
	for i := range scheds {
		scheds[i] = w
	}
	buses := tcpBuses(t, topo, nil, scheds)
	return wallTransportFixture(t, w, topo, func(id NodeID) Transport { return buses[id] })
}

func newTransportFixture(sched sim.Scheduler, topo *Topology, host func(NodeID) Transport, run func(func()), await func(func() bool) bool) *transportFixture {
	f := &transportFixture{sched: sched, run: run, await: await}
	for i := 0; i < topo.N; i++ {
		id := NodeID(i)
		f.hosts = append(f.hosts, host(id))
		host(id).Handle(id, func(m *Message) {
			f.mu.Lock()
			f.got = append(f.got, delivery{*m, sched.Now()})
			f.mu.Unlock()
		})
	}
	return f
}

func wallTransportFixture(t *testing.T, w *sim.WallScheduler, topo *Topology, host func(NodeID) Transport) *transportFixture {
	run := func(f func()) {
		done := make(chan struct{})
		w.At(w.Now(), func() { f(); close(done) })
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("scheduler callback never ran")
		}
	}
	await := func(cond func() bool) bool {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				return false
			}
		}
		return true
	}
	f := newTransportFixture(w, topo, host, run, await)
	w.Start()
	return f
}

// each applies fn once per distinct transport instance. Control-plane
// state is per instance, so on TCPBus (one instance per node) SetDown and
// filters are local knowledge and must be set where they are consulted.
func (f *transportFixture) each(fn func(Transport)) {
	seen := map[Transport]bool{}
	for _, h := range f.hosts {
		if !seen[h] {
			seen[h] = true
			fn(h)
		}
	}
}

// stats sums the counters of every instance.
func (f *transportFixture) stats() Stats {
	var s Stats
	f.each(func(tr Transport) {
		st := tr.Snapshot()
		for c := range s.MsgsSent {
			s.MsgsSent[c] += st.MsgsSent[c]
			s.MsgsDelivered[c] += st.MsgsDelivered[c]
			s.MsgsDropped[c] += st.MsgsDropped[c]
			s.MsgsShed[c] += st.MsgsShed[c]
			s.BytesSent[c] += st.BytesSent[c]
		}
	})
	return s
}

func (f *transportFixture) deliveries() []delivery {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]delivery(nil), f.got...)
}

// awaitDeliveries waits for n deliveries and returns them.
func (f *transportFixture) awaitDeliveries(t *testing.T, n int) []delivery {
	t.Helper()
	if !f.await(func() bool { return len(f.deliveries()) >= n }) {
		t.Fatalf("delivered %d of %d", len(f.deliveries()), n)
	}
	return f.deliveries()
}

// awaitSilentDrop waits for one foreground drop and asserts nothing was
// delivered: the drop ends the message's life, so nothing is in flight.
func (f *transportFixture) awaitSilentDrop(t *testing.T) {
	t.Helper()
	if !f.await(func() bool { return f.stats().MsgsDropped[ClassForeground] == 1 }) {
		t.Fatalf("no drop counted: %+v", f.stats())
	}
	if got := f.deliveries(); len(got) != 0 {
		t.Fatalf("dropped message was delivered: %+v", got)
	}
}

func forEachTransport(t *testing.T, topo *Topology, test func(t *testing.T, f *transportFixture)) {
	for _, kind := range transportKinds {
		t.Run(kind.name, func(t *testing.T) { test(t, kind.boot(t, topo)) })
	}
}

const contractBW, contractProp = 20_000_000, 50 * sim.Microsecond

func seqPayload(i int) []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(i))
}

// TestTransportFIFOPerLink asserts the Transport ordering contract: two
// messages transmitted on the same directed link in the same class are
// delivered in transmission order.
func TestTransportFIFOPerLink(t *testing.T) {
	const n = 200
	forEachTransport(t, FullMesh(2, contractBW, contractProp), func(t *testing.T, f *transportFixture) {
		f.run(func() {
			for i := 0; i < n; i++ {
				if !f.hosts[0].SendDirect(0, 1, ClassForeground, seqPayload(i)) {
					t.Errorf("send %d refused", i)
				}
			}
		})
		for i, d := range f.awaitDeliveries(t, n) {
			if s := binary.LittleEndian.Uint32(d.m.Payload); int(s) != i {
				t.Fatalf("position %d got seq %d: FIFO violated", i, s)
			}
		}
	})
}

func TestTransportDownDestinationDrops(t *testing.T) {
	forEachTransport(t, Line(2, contractBW, contractProp), func(t *testing.T, f *transportFixture) {
		f.each(func(tr Transport) { tr.SetDown(1, true) })
		f.run(func() { f.hosts[0].SendDirect(0, 1, ClassForeground, []byte("x")) })
		f.awaitSilentDrop(t)
	})
}

func TestTransportDownSenderCannotSend(t *testing.T) {
	forEachTransport(t, Line(2, contractBW, contractProp), func(t *testing.T, f *transportFixture) {
		f.hosts[0].SetDown(0, true)
		f.run(func() {
			if f.hosts[0].SendDirect(0, 1, ClassForeground, []byte("x")) || f.hosts[0].Send(0, 1, ClassForeground, []byte("x")) {
				t.Error("down node sent a message")
			}
		})
		if st := f.stats(); st.MsgsDropped[ClassForeground] != 2 || st.MsgsSent[ClassForeground] != 0 {
			t.Errorf("down sender counters wrong: %+v", st)
		}
		f.hosts[0].SetDown(0, false)
		if f.hosts[0].IsDown(0) {
			t.Fatal("IsDown after repair")
		}
		f.run(func() { f.hosts[0].SendDirect(0, 1, ClassForeground, []byte("y")) })
		f.awaitDeliveries(t, 1)
	})
}

func TestTransportMultiHopCountsHops(t *testing.T) {
	forEachTransport(t, Line(4, contractBW, contractProp), func(t *testing.T, f *transportFixture) {
		f.run(func() {
			if !f.hosts[0].Send(0, 3, ClassEvidence, []byte("multi")) {
				t.Error("Send refused")
			}
		})
		d := f.awaitDeliveries(t, 1)[0]
		if d.m.To != 3 || d.m.Src != 0 || d.m.Hops != 3 || string(d.m.Payload) != "multi" {
			t.Fatalf("delivery wrong: %+v", d)
		}
	})
}

func TestTransportRelayFilterDrops(t *testing.T) {
	forEachTransport(t, Line(3, contractBW, contractProp), func(t *testing.T, f *transportFixture) {
		f.each(func(tr Transport) {
			tr.SetForwardFilter(1, func(*Message) (*Message, sim.Time, bool) { return nil, 0, false })
		})
		f.run(func() { f.hosts[0].Send(0, 2, ClassForeground, []byte("x")) })
		f.awaitSilentDrop(t)
	})
}

func TestTransportRelayFilterDelays(t *testing.T) {
	const delay = 50 * sim.Millisecond
	forEachTransport(t, Line(3, contractBW, contractProp), func(t *testing.T, f *transportFixture) {
		f.each(func(tr Transport) {
			tr.SetForwardFilter(1, func(m *Message) (*Message, sim.Time, bool) { return m, delay, true })
		})
		var sent sim.Time
		f.run(func() {
			sent = f.sched.Now()
			f.hosts[0].Send(0, 2, ClassForeground, []byte("x"))
		})
		if d := f.awaitDeliveries(t, 1)[0]; d.at-sent < delay {
			t.Errorf("delayed message arrived %v after send, want >= %v", d.at-sent, delay)
		}
	})
}

// TestTransportForwardingAvoidsDownIntermediate: relay 1's shortest path
// to 3 runs through 2; with 2 down it must take the longer 1-4-5-3.
func TestTransportForwardingAvoidsDownIntermediate(t *testing.T) {
	var links []Link
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {1, 4}, {4, 5}, {5, 3}} {
		links = append(links, Link{e[0], e[1], contractBW, contractProp})
	}
	forEachTransport(t, NewTopology(6, links), func(t *testing.T, f *transportFixture) {
		f.each(func(tr Transport) { tr.SetDown(2, true) })
		f.run(func() { f.hosts[0].Send(0, 3, ClassForeground, []byte("around")) })
		if d := f.awaitDeliveries(t, 1)[0]; d.m.Hops != 4 {
			t.Errorf("hops = %d, want 4 (0-1-4-5-3)", d.m.Hops)
		}
	})
}

// TestTransportCounters pins the shared counter set: every hop counts as
// sent (with its header bytes), final hops as delivered, and a send over
// a missing link as dropped.
func TestTransportCounters(t *testing.T) {
	forEachTransport(t, Line(3, contractBW, contractProp), func(t *testing.T, f *transportFixture) {
		f.run(func() {
			f.hosts[0].Send(0, 2, ClassForeground, make([]byte, 100))
			f.hosts[0].SendDirect(0, 1, ClassEvidence, make([]byte, 50))
			if f.hosts[0].SendDirect(0, 2, ClassForeground, nil) {
				t.Error("SendDirect between non-adjacent nodes accepted")
			}
		})
		f.awaitDeliveries(t, 2)
		var want Stats
		want.MsgsSent = [numClasses]uint64{2, 1}
		want.BytesSent = [numClasses]uint64{2 * 132, 82}
		want.MsgsDelivered = [numClasses]uint64{1, 1}
		want.MsgsDropped = [numClasses]uint64{1, 0}
		if got := f.stats(); got != want {
			t.Errorf("counters = %+v, want %+v", got, want)
		}
	})
}
