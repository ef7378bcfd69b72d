package network

import (
	"testing"

	"btr/internal/sim"
)

// testNet builds a kernel+network over the given topology with default
// config.
func testNet(t *testing.T, topo *Topology, cfg Config) (*sim.Kernel, *Network) {
	t.Helper()
	k := sim.NewKernel(1)
	return k, New(k, topo, cfg)
}

func TestSendDirectDelivers(t *testing.T) {
	k, nw := testNet(t, Line(2, 1_000_000, sim.Millisecond), DefaultConfig())
	var got *Message
	nw.Handle(1, func(m *Message) { got = m })
	if !nw.SendDirect(0, 1, ClassForeground, []byte("hello")) {
		t.Fatal("SendDirect failed")
	}
	k.RunAll()
	if got == nil {
		t.Fatal("message not delivered")
	}
	if string(got.Payload) != "hello" {
		t.Errorf("payload = %q", got.Payload)
	}
	if got.Src != 0 || got.Dst != 1 || got.Hops != 1 {
		t.Errorf("message metadata wrong: %+v", got)
	}
}

func TestSendDirectNonAdjacent(t *testing.T) {
	_, nw := testNet(t, Line(3, 1000, 0), DefaultConfig())
	if nw.SendDirect(0, 2, ClassForeground, nil) {
		t.Error("SendDirect succeeded between non-adjacent nodes")
	}
}

func TestLatencyModel(t *testing.T) {
	// 1000-byte payload + 32 header at 1 MB/s foreground share of a
	// 1.25 MB/s link (evidence share 0.2) = 1032us tx + 1ms prop.
	topo := Line(2, 1_250_000, sim.Millisecond)
	k, nw := testNet(t, topo, Config{EvidenceShare: 0.2})
	var at sim.Time
	nw.Handle(1, func(m *Message) { at = k.Now() })
	nw.SendDirect(0, 1, ClassForeground, make([]byte, 1000))
	k.RunAll()
	want := sim.Time(1032) + sim.Millisecond
	if at != want {
		t.Errorf("delivery at %v, want %v", at, want)
	}
}

func TestQueueingSerializes(t *testing.T) {
	// Two messages on the same directed channel serialize; the second's
	// arrival is one tx-time later.
	topo := Line(2, 1_000_000, 0)
	k, nw := testNet(t, topo, Config{EvidenceShare: 0})
	var arrivals []sim.Time
	nw.Handle(1, func(m *Message) { arrivals = append(arrivals, k.Now()) })
	nw.SendDirect(0, 1, ClassForeground, make([]byte, 968)) // 1000B on wire => 1ms
	nw.SendDirect(0, 1, ClassForeground, make([]byte, 968))
	k.RunAll()
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d, want 2", len(arrivals))
	}
	if arrivals[0] != sim.Millisecond || arrivals[1] != 2*sim.Millisecond {
		t.Errorf("arrivals = %v, want [1ms 2ms]", arrivals)
	}
}

func TestEvidenceClassIsolation(t *testing.T) {
	// Saturate the foreground channel; an evidence message must still go
	// through at its reserved share, unaffected by the backlog.
	topo := Line(2, 1_000_000, 0)
	k, nw := testNet(t, topo, Config{EvidenceShare: 0.2})
	var evidenceAt sim.Time
	nw.Handle(1, func(m *Message) {
		if m.Class == ClassEvidence {
			evidenceAt = k.Now()
		}
	})
	for i := 0; i < 50; i++ {
		nw.SendDirect(0, 1, ClassForeground, make([]byte, 10000))
	}
	nw.SendDirect(0, 1, ClassEvidence, make([]byte, 168)) // 200B at 200kB/s => 1ms
	k.RunAll()
	if evidenceAt != sim.Millisecond {
		t.Errorf("evidence delivered at %v despite reservation, want 1ms", evidenceAt)
	}
}

func TestNoIsolationWithoutReservation(t *testing.T) {
	// With EvidenceShare=0 everything shares one channel: backlog delays
	// evidence. This is the E6 ablation's mechanism.
	topo := Line(2, 1_000_000, 0)
	k, nw := testNet(t, topo, Config{EvidenceShare: 0})
	var evidenceAt sim.Time
	nw.Handle(1, func(m *Message) {
		if m.Class == ClassEvidence {
			evidenceAt = k.Now()
		}
	})
	for i := 0; i < 10; i++ {
		nw.SendDirect(0, 1, ClassForeground, make([]byte, 9968)) // 10ms each
	}
	nw.SendDirect(0, 1, ClassEvidence, make([]byte, 68))
	k.RunAll()
	if evidenceAt <= 100*sim.Millisecond {
		t.Errorf("evidence at %v; expected to queue behind ~100ms backlog", evidenceAt)
	}
}

func TestLossModel(t *testing.T) {
	topo := Line(2, 1_000_000, 0)
	k := sim.NewKernel(7)
	nw := New(k, topo, Config{LossProb: 0.5})
	delivered := 0
	nw.Handle(1, func(m *Message) { delivered++ })
	const sent = 1000
	for i := 0; i < sent; i++ {
		nw.SendDirect(0, 1, ClassForeground, []byte{1})
	}
	k.RunAll()
	if delivered < sent/3 || delivered > 2*sent/3 {
		t.Errorf("delivered %d of %d at 50%% loss", delivered, sent)
	}
}

func TestStatsAccounting(t *testing.T) {
	topo := Line(2, 1_000_000, 0)
	k, nw := testNet(t, topo, DefaultConfig())
	nw.Handle(1, func(m *Message) {})
	nw.SendDirect(0, 1, ClassForeground, make([]byte, 100))
	nw.SendDirect(0, 1, ClassEvidence, make([]byte, 50))
	k.RunAll()
	st := nw.Snapshot()
	if st.MsgsSent[ClassForeground] != 1 || st.MsgsSent[ClassEvidence] != 1 {
		t.Errorf("sent stats wrong: %+v", st.MsgsSent)
	}
	if st.BytesSent[ClassForeground] != 132 {
		t.Errorf("foreground bytes = %d, want 132", st.BytesSent[ClassForeground])
	}
	if st.MsgsDelivered[ClassForeground] != 1 {
		t.Errorf("delivered stats wrong")
	}
}

func TestClassString(t *testing.T) {
	if ClassForeground.String() != "foreground" || ClassEvidence.String() != "evidence" {
		t.Error("Class.String wrong")
	}
}

func BenchmarkNetworkOneHop(b *testing.B) {
	topo := Line(2, 1_000_000_000, 0)
	k := sim.NewKernel(1)
	nw := New(k, topo, DefaultConfig())
	nw.Handle(1, func(m *Message) {})
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		nw.SendDirect(0, 1, ClassForeground, payload)
		k.RunAll()
	}
}

// TestSendRoutingAllocatesNothing pins that a routed send reads its next
// hop from the topology's route table: once the source's row is warm,
// Send costs exactly the allocations of SendDirect to that neighbor.
func TestSendRoutingAllocatesNothing(t *testing.T) {
	payload := []byte("x")
	measure := func(send func(*Network)) float64 {
		k, nw := testNet(t, Grid(3, 3, 1_000_000, 0), DefaultConfig())
		send(nw) // warm the route row and the per-channel state
		k.RunAll()
		return testing.AllocsPerRun(100, func() {
			send(nw)
			k.RunAll()
		})
	}
	direct := measure(func(nw *Network) { nw.SendDirect(0, 1, ClassForeground, payload) })
	routed := measure(func(nw *Network) { nw.Send(0, 1, ClassForeground, payload) })
	if routed > direct {
		t.Errorf("Send allocates %.0f per message, SendDirect %.0f: routing must be free on a warm topology", routed, direct)
	}
}

// TestSimSendDeliverAmortisedAllocs pins the simulated hot path: a
// message is carved from a per-plane chunk and is its own arrival event,
// so a warm Send → delivery costs one chunk allocation per msgChunk
// messages and nothing else. (A relay searches a fresh path per hop, so
// the pin is on one-hop routes, the full-mesh case.)
func TestSimSendDeliverAmortisedAllocs(t *testing.T) {
	const perRun = 10 * msgChunk
	payload := []byte("x")
	k, nw := testNet(t, FullMesh(4, 1_000_000, sim.Millisecond), DefaultConfig())
	delivered := 0
	for id := NodeID(1); id < 4; id++ {
		nw.Handle(id, func(*Message) { delivered++ })
	}
	burst := func() {
		for i := 0; i < perRun; i++ {
			nw.Send(0, NodeID(1+i%3), Class(i%2), payload)
		}
		k.RunAll()
	}
	burst() // warm: route rows, channel state, the kernel's event pool
	delivered = 0
	allocs := testing.AllocsPerRun(20, burst) / perRun
	t.Logf("%.4f allocations per message", allocs)
	if want := 21 * perRun; delivered != want { // AllocsPerRun runs once more to warm up
		t.Fatalf("delivered %d of %d", delivered, want)
	}
	if allocs > 0.05 {
		t.Fatalf("%.4f allocations per delivered message, pinned at 0.05", allocs)
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
