package network

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"btr/internal/sim"
)

// busFixture boots a wall scheduler plus a live bus over topo and returns
// a cleanup that asserts leak-free shutdown.
func busFixture(t *testing.T, topo *Topology, cfg Config) (*sim.WallScheduler, *Bus) {
	t.Helper()
	before := runtime.NumGoroutine()
	w := sim.NewWallScheduler(1)
	b := NewBus(w, topo, cfg)
	t.Cleanup(func() {
		w.Close()
		b.Close()
		checkNoLeak(t, before, "bus")
	})
	return w, b
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

func TestBusDeliversDirect(t *testing.T) {
	topo := FullMesh(3, 20_000_000, 50*sim.Microsecond)
	w, b := busFixture(t, topo, DefaultConfig())
	var mu sync.Mutex
	var got []*Message
	done := make(chan struct{}, 8)
	b.Handle(1, func(m *Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
		done <- struct{}{}
	})
	w.At(0, func() {
		if !b.SendDirect(0, 1, ClassForeground, []byte("hello")) {
			t.Error("SendDirect failed")
		}
	})
	w.Start()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("bus never delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || string(got[0].Payload) != "hello" || got[0].Src != 0 {
		t.Fatalf("delivery wrong: %+v", got)
	}
	st := b.Snapshot()
	if st.MsgsSent[ClassForeground] != 1 || st.MsgsDelivered[ClassForeground] != 1 {
		t.Errorf("stats wrong: %+v", st)
	}
}

func TestBusSerializationOrderPerLane(t *testing.T) {
	// Two frames down the same lane must arrive in send order (FIFO
	// shaping), even with zero propagation sorting to the same instant.
	topo := FullMesh(2, 1_000_000, 0)
	w, b := busFixture(t, topo, Config{EvidenceShare: 0.2})
	var mu sync.Mutex
	var order []byte
	done := make(chan struct{}, 16)
	b.Handle(1, func(m *Message) {
		mu.Lock()
		order = append(order, m.Payload[0])
		mu.Unlock()
		done <- struct{}{}
	})
	const frames = 8
	w.At(0, func() {
		for i := byte(0); i < frames; i++ {
			b.SendDirect(0, 1, ClassForeground, []byte{i})
		}
	})
	w.Start()
	for i := 0; i < frames; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d frames arrived", i, frames)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i := byte(0); i < frames; i++ {
		if order[i] != i {
			t.Fatalf("lane reordered frames: %v", order)
		}
	}
}

func TestBusCloseIsIdempotentAndRefusesSends(t *testing.T) {
	topo := FullMesh(2, 20_000_000, 50*sim.Microsecond)
	w := sim.NewWallScheduler(1)
	b := NewBus(w, topo, DefaultConfig())
	w.Start()
	w.Close()
	b.Close()
	b.Close()
	if b.transmitAfterCloseAccepted() {
		t.Error("send accepted after Close")
	}
}

// transmitAfterCloseAccepted exercises the post-Close send guard without
// racing the executor (the scheduler is already closed here).
func (b *Bus) transmitAfterCloseAccepted() bool {
	return b.SendDirect(0, 1, ClassForeground, []byte("late"))
}

func TestBusSetWiringAddsAndRemovesLanes(t *testing.T) {
	// Universe: 4 slots; start wired as a line 0-1-2 (slot 3 dormant).
	const bw, prop = 20_000_000, 50 * sim.Microsecond
	line := NewTopology(4, []Link{{0, 1, bw, prop}, {1, 2, bw, prop}})
	w, b := busFixture(t, line, DefaultConfig())
	perLink := 2 * len(b.classes()) // two directions x classes
	if got := b.LaneCount(); got != 2*perLink {
		t.Fatalf("initial lanes = %d, want %d", got, 2*perLink)
	}
	// Join slot 3 (link 2-3) and drop slot 0's link: lane set follows.
	next := NewTopology(4, []Link{{1, 2, bw, prop}, {2, 3, bw, prop}})
	done := make(chan struct{})
	w.At(0, func() {
		b.SetWiring(next)
		if got := b.LaneCount(); got != 2*perLink {
			t.Errorf("lanes after rewire = %d, want %d", got, 2*perLink)
		}
		if b.SendDirect(0, 1, ClassForeground, []byte("x")) {
			t.Error("send over a removed link succeeded")
		}
		if !b.SendDirect(2, 3, ClassForeground, []byte("x")) {
			t.Error("send over an added link failed")
		}
	})
	b.Handle(3, func(m *Message) { close(done) })
	w.Start()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("delivery over the added lane never arrived")
	}
	// Tear down to a single link: lanes for removed links must be gone
	// (their workers exit; the fixture's leak check proves it).
	w.At(w.Now()+1, func() { b.SetWiring(NewTopology(4, []Link{{1, 2, bw, prop}})) })
	deadline := time.Now().Add(2 * time.Second)
	for b.LaneCount() != perLink && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := b.LaneCount(); got != perLink {
		t.Fatalf("lanes after teardown = %d, want %d", got, perLink)
	}
}

func TestNetworkSetWiring(t *testing.T) {
	k := sim.NewKernel(1)
	line := NewTopology(3, []Link{{0, 1, 20_000_000, 50}, {1, 2, 20_000_000, 50}})
	n := New(k, line, DefaultConfig())
	var got int
	n.Handle(2, func(m *Message) { got++ })
	k.At(0, func() {
		if !n.Send(0, 2, ClassForeground, []byte("via 1")) {
			t.Error("send over initial wiring failed")
		}
	})
	// Drop 1-2 and wire 0-2 directly: routing must follow.
	rewired := NewTopology(3, []Link{{0, 1, 20_000_000, 50}, {0, 2, 20_000_000, 50}})
	k.At(1000, func() {
		n.SetWiring(rewired)
		if !n.SendDirect(0, 2, ClassForeground, []byte("direct")) {
			t.Error("send over added link failed")
		}
		if n.SendDirect(1, 2, ClassForeground, []byte("gone")) {
			t.Error("send over removed link succeeded")
		}
	})
	k.Run(sim.Second)
	if got != 2 {
		t.Fatalf("delivered %d messages, want 2", got)
	}
}
