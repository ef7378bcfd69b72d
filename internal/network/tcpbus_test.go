package network

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"btr/internal/sim"
	"btr/internal/wire"
)

// tcpCluster boots one TCPBus + WallScheduler per node slot of topo on
// loopback (dynamic ports), the in-test analogue of an n-process
// deployment: the instances share no state except the sockets.
func tcpCluster(t *testing.T, topo *Topology, cfg func(TCPConfig) TCPConfig) ([]*sim.WallScheduler, []*TCPBus) {
	t.Helper()
	scheds := make([]*sim.WallScheduler, topo.N)
	for i := range scheds {
		scheds[i] = sim.NewWallScheduler(uint64(i + 1))
	}
	return scheds, tcpBuses(t, topo, cfg, scheds)
}

// tcpBuses boots one TCPBus per node slot of topo on loopback, node i
// driven by scheds[i] (the same scheduler may drive several). Cleanup
// closes them all and asserts leak-free shutdown.
func tcpBuses(t *testing.T, topo *Topology, cfg func(TCPConfig) TCPConfig, scheds []*sim.WallScheduler) []*TCPBus {
	t.Helper()
	before := runtime.NumGoroutine()
	liss := make([]net.Listener, topo.N)
	addrs := make([]string, topo.N)
	for i := range liss {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		liss[i] = lis
		addrs[i] = lis.Addr().String()
	}
	buses := make([]*TCPBus, topo.N)
	c := DefaultTCPConfig(0xbeef)
	if cfg != nil {
		c = cfg(c)
	}
	for i := range buses {
		buses[i] = NewTCPBus(scheds[i], topo, NodeID(i), addrs, liss[i], c)
	}
	t.Cleanup(func() {
		for _, w := range scheds {
			w.Close()
		}
		for _, b := range buses {
			b.Close()
		}
		checkNoLeak(t, before, "tcpbus")
	})
	return buses
}

func TestTCPBusDeliversDirect(t *testing.T) {
	topo := FullMesh(3, 20_000_000, 50*sim.Microsecond)
	scheds, buses := tcpCluster(t, topo, nil)
	var mu sync.Mutex
	var got []*Message
	done := make(chan struct{}, 8)
	buses[1].Handle(1, func(m *Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
		done <- struct{}{}
	})
	scheds[0].At(0, func() {
		if !buses[0].SendDirect(0, 1, ClassForeground, []byte("hello")) {
			t.Error("SendDirect failed")
		}
	})
	for _, w := range scheds {
		w.Start()
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("tcpbus never delivered")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || string(got[0].Payload) != "hello" || got[0].Src != 0 || got[0].From != 0 {
		t.Fatalf("delivery wrong: %+v", got[0])
	}
	if st := buses[0].Snapshot(); st.MsgsSent[ClassForeground] != 1 {
		t.Errorf("sender stats wrong: %+v", st)
	}
	if st := buses[1].Snapshot(); st.MsgsDelivered[ClassForeground] != 1 {
		t.Errorf("receiver stats wrong: %+v", st)
	}
}

// TestTCPBusReconnectsAfterSever proves the supervised-reconnect path: a
// userspace partition severs both directions; healing it brings the
// connection back (Reconnects advances) and traffic flows again.
func TestTCPBusReconnectsAfterSever(t *testing.T) {
	topo := FullMesh(2, 20_000_000, 50*sim.Microsecond)
	scheds, buses := tcpCluster(t, topo, nil)
	var mu sync.Mutex
	var got []string
	buses[1].Handle(1, func(m *Message) {
		mu.Lock()
		got = append(got, string(m.Payload))
		mu.Unlock()
	})
	for _, w := range scheds {
		w.Start()
	}
	send := func(s string) {
		done := make(chan bool, 1)
		scheds[0].At(scheds[0].Now(), func() {
			done <- buses[0].SendDirect(0, 1, ClassForeground, []byte(s))
		})
		<-done
	}
	waitFor := func(s string) {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			mu.Lock()
			for _, g := range got {
				if g == s {
					mu.Unlock()
					return
				}
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("%q never delivered", s)
	}
	send("before")
	waitFor("before")

	// Partition both ends. Refusing at the receiver alone is not enough:
	// node 0's supervisor would keep redialing, and each accepted dial
	// counts as connected until node 1 rejects the Hello (see
	// SetPeerRefused), so ConnectedCount would flicker above zero.
	buses[1].SetPeerRefused(0, true)
	buses[0].SetPeerRefused(1, true)
	deadline := time.Now().Add(5 * time.Second)
	for buses[0].ConnectedCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if buses[0].ConnectedCount() != 0 {
		t.Fatal("partition did not sever node 0's outgoing connection")
	}

	buses[1].SetPeerRefused(0, false)
	buses[0].SetPeerRefused(1, false)
	deadline = time.Now().Add(10 * time.Second)
	for buses[0].ConnectedCount() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	send("after")
	waitFor("after")
	for _, ls := range buses[0].LinkStats() {
		if ls.Peer == 1 && ls.Reconnects < 1 {
			t.Errorf("expected >=1 reconnect to peer 1: %+v", ls)
		}
	}
}

// TestTCPBusBoundedQueueDrops pins drop accounting: with no server to
// drain the link, a tiny queue overflows and the overflow is counted
// both globally and per link.
func TestTCPBusBoundedQueueDrops(t *testing.T) {
	cfg := DefaultTCPConfig(1)
	cfg.QueueDepth = 2
	w, b, _ := soloTCPBus(t, cfg)
	w.Start()
	done := make(chan int, 1)
	w.At(0, func() {
		sent := 0
		for i := 0; i < 10; i++ {
			if b.SendDirect(0, 1, ClassForeground, []byte("x")) {
				sent++
			}
		}
		done <- sent
	})
	sent := <-done
	if sent != 2 {
		t.Fatalf("sent = %d, want 2 (queue depth)", sent)
	}
	st := b.Snapshot()
	if st.MsgsDropped[ClassForeground] != 8 {
		t.Errorf("dropped = %d, want 8", st.MsgsDropped[ClassForeground])
	}
	var drops uint64
	for _, ls := range b.LinkStats() {
		drops += ls.Drops
	}
	if drops != 8 {
		t.Errorf("per-link drops = %d, want 8", drops)
	}
}

// TestTCPBusRejectsForeignHello proves handshake validation: a raw
// connection speaking the wrong cluster tag (or garbage) is closed
// without ever reaching a handler.
func TestTCPBusRejectsForeignHello(t *testing.T) {
	topo := FullMesh(2, 20_000_000, 50*sim.Microsecond)
	scheds, buses := tcpCluster(t, topo, nil)
	delivered := make(chan struct{}, 1)
	buses[0].Handle(0, func(m *Message) { delivered <- struct{}{} })
	for _, w := range scheds {
		w.Start()
	}
	addr := buses[0].addrs[0]
	for _, raw := range [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		binary.LittleEndian.AppendUint32(nil, 0), // zero-length frame
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.Write(raw)
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err == nil {
			t.Error("expected connection to be closed")
		}
		conn.Close()
	}
	select {
	case <-delivered:
		t.Fatal("garbage connection reached a handler")
	case <-time.After(50 * time.Millisecond):
	}
}

// soloTCPBus boots one TCPBus for node 0 of a 2-slot topology whose peer
// address is dead (a reserved-then-closed port): its link never connects,
// so the send backlog never drains and inbound connections come only from
// the test's raw dials.
func soloTCPBus(tb testing.TB, cfg TCPConfig) (*sim.WallScheduler, *TCPBus, string) {
	tb.Helper()
	topo := FullMesh(2, 20_000_000, 50*sim.Microsecond)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("listen: %v", err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	w := sim.NewWallScheduler(1)
	b := NewTCPBus(w, topo, 0, []string{lis.Addr().String(), deadAddr}, lis, cfg)
	tb.Cleanup(func() {
		w.Close()
		b.Close()
	})
	return w, b, lis.Addr().String()
}

// TestTCPBusRejectsMalformedMsgFields is the Byzantine-frame regression:
// a peer holding the cluster tag sends msg frames whose class or node-ID
// fields are outside the deployment's ranges. Each must sever the
// connection — never index a fixed-size stats or queue array — and a
// well-formed frame on a fresh connection still delivers, proving the
// rejections are the validation firing rather than harness breakage.
func TestTCPBusRejectsMalformedMsgFields(t *testing.T) {
	const cluster = 0xbeef
	w, b, addr := soloTCPBus(t, DefaultTCPConfig(cluster))
	delivered := make(chan *Message, 8)
	b.Handle(0, func(m *Message) { delivered <- m })
	w.Start()

	hello := wire.AppendHello(nil, wire.Hello{Cluster: cluster, Node: 1})
	sendFrame := func(wm wire.Msg) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		frame, err := wire.AppendMsg(append([]byte(nil), hello...), wm)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		return conn
	}
	for name, wm := range map[string]wire.Msg{
		"class out of range": {Class: 7, Src: 1, Dst: 0, From: 1, To: 0},
		"src out of range":   {Class: uint8(ClassForeground), Src: 9, Dst: 0, From: 1, To: 0},
		"dst out of range":   {Class: uint8(ClassForeground), Src: 1, Dst: 9, From: 1, To: 0},
		"from out of range":  {Class: uint8(ClassForeground), Src: 1, Dst: 0, From: 9, To: 0},
		"to out of range":    {Class: uint8(ClassForeground), Src: 1, Dst: 0, From: 1, To: 9},
	} {
		conn := sendFrame(wm)
		buf := make([]byte, 1)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("%s: connection not severed (read err %v)", name, err)
		}
		conn.Close()
	}
	select {
	case m := <-delivered:
		t.Fatalf("malformed frame reached a handler: %+v", m)
	case <-time.After(50 * time.Millisecond):
	}
	conn := sendFrame(wire.Msg{Class: uint8(ClassForeground), Src: 1, Dst: 0, From: 1, To: 0, Payload: []byte("ok")})
	defer conn.Close()
	select {
	case m := <-delivered:
		if string(m.Payload) != "ok" {
			t.Fatalf("control delivery wrong: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("well-formed control frame never delivered")
	}
}

// TestTCPBusInboundCloseOnReplace pins the reconnect-ordering guard: a
// second connection Hello-ing as the same peer supersedes the first,
// which must be closed rather than left draining kernel buffers behind
// its replacement (the FIFO-across-reconnect hazard).
func TestTCPBusInboundCloseOnReplace(t *testing.T) {
	const cluster = 0xbeef
	w, b, addr := soloTCPBus(t, DefaultTCPConfig(cluster))
	delivered := make(chan *Message, 2)
	b.Handle(0, func(m *Message) { delivered <- m })
	w.Start()

	hello := wire.AppendHello(nil, wire.Hello{Cluster: cluster, Node: 1})
	send := func(payload string) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		frame, err := wire.AppendMsg(append([]byte(nil), hello...), wire.Msg{
			Class: uint8(ClassForeground), Src: 1, Dst: 0, From: 1, To: 0, Payload: []byte(payload),
		})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		select {
		case m := <-delivered:
			if string(m.Payload) != payload {
				t.Fatalf("delivery wrong: %+v", m)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%q never delivered", payload)
		}
		return conn
	}
	c1 := send("one")
	defer c1.Close()
	c2 := send("two") // registering c2 must close c1
	defer c2.Close()
	buf := make([]byte, 1)
	c1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c1.Read(buf); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("superseded inbound connection was not closed (read err %v)", err)
	}
}

// TestTCPBusSetWiringConverges is the connection-count analogue of the
// Bus lane-convergence test: wiring changes open and close real link
// supervisors.
func TestTCPBusSetWiringConverges(t *testing.T) {
	full := FullMesh(4, 20_000_000, 50*sim.Microsecond)
	ring := Ring(4, 20_000_000, 50*sim.Microsecond)
	scheds, buses := tcpCluster(t, full, nil)
	for _, w := range scheds {
		w.Start()
	}
	if got := buses[0].LinkCount(); got != 3 {
		t.Fatalf("full-mesh LinkCount = %d, want 3", got)
	}
	for _, b := range buses {
		b.SetWiring(ring)
	}
	if got := buses[0].LinkCount(); got != 2 {
		t.Fatalf("ring LinkCount = %d, want 2", got)
	}
	for _, b := range buses {
		b.SetWiring(full)
	}
	if got := buses[0].LinkCount(); got != 3 {
		t.Fatalf("restored LinkCount = %d, want 3", got)
	}
}

// TestBusSetWiringRaceStress swaps wiring from a non-scheduler goroutine
// while deliveries are in flight — the -race stress the locked control
// plane must survive — then asserts lane convergence and (via the
// fixture) leak-free shutdown.
func TestBusSetWiringRaceStress(t *testing.T) {
	full := FullMesh(4, 20_000_000, 50*sim.Microsecond)
	ring := Ring(4, 20_000_000, 50*sim.Microsecond)
	w, b := busFixture(t, full, DefaultConfig())
	var delivered sync.WaitGroup
	for i := 0; i < 4; i++ {
		b.Handle(NodeID(i), func(m *Message) {})
	}
	stop := make(chan struct{})
	var tick func()
	tick = func() {
		select {
		case <-stop:
			return
		default:
		}
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				if src != dst {
					b.Send(NodeID(src), NodeID(dst), ClassForeground, []byte("x"))
					b.SetDown(NodeID(src), false) // control-plane churn from callbacks too
				}
			}
		}
		w.After(200*sim.Microsecond, tick)
	}
	w.At(0, tick)
	w.Start()
	delivered.Add(1)
	go func() {
		defer delivered.Done()
		topos := []*Topology{ring, full}
		for i := 0; i < 60; i++ {
			b.SetWiring(topos[i%2])
			b.SetForwardFilter(NodeID(i%4), nil)
			b.IsDown(NodeID(i % 4))
			time.Sleep(time.Millisecond)
		}
		b.SetWiring(full)
	}()
	delivered.Wait()
	close(stop)
	// Full mesh of 4: 6 links x 2 directions x 2 classes = 24 lanes.
	deadline := time.Now().Add(5 * time.Second)
	for b.LaneCount() != 24 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := b.LaneCount(); got != 24 {
		t.Fatalf("LaneCount = %d after churn, want 24", got)
	}
}

// TestTCPBusSetWiringRaceStress is the same stress on real sockets:
// wiring flaps from another goroutine while every node keeps sending;
// afterwards the supervisor set must converge to the final wiring and
// shutdown must not leak (fixture cleanup).
func TestTCPBusSetWiringRaceStress(t *testing.T) {
	full := FullMesh(4, 20_000_000, 50*sim.Microsecond)
	ring := Ring(4, 20_000_000, 50*sim.Microsecond)
	scheds, buses := tcpCluster(t, full, nil)
	for i, b := range buses {
		b.Handle(NodeID(i), func(m *Message) {})
	}
	stop := make(chan struct{})
	for i := range scheds {
		i := i
		var tick func()
		tick = func() {
			select {
			case <-stop:
				return
			default:
			}
			for dst := 0; dst < 4; dst++ {
				if dst != i {
					buses[i].Send(NodeID(i), NodeID(dst), ClassForeground, []byte("x"))
				}
			}
			scheds[i].After(500*sim.Microsecond, tick)
		}
		scheds[i].At(0, tick)
		scheds[i].Start()
	}
	var churn sync.WaitGroup
	for _, b := range buses {
		b := b
		churn.Add(1)
		go func() {
			defer churn.Done()
			topos := []*Topology{ring, full}
			for i := 0; i < 40; i++ {
				b.SetWiring(topos[i%2])
				time.Sleep(time.Millisecond)
			}
			b.SetWiring(full)
		}()
	}
	churn.Wait()
	close(stop)
	for i, b := range buses {
		if got := b.LinkCount(); got != 3 {
			t.Errorf("node %d LinkCount = %d after churn, want 3", i, got)
		}
	}
	// Connections re-establish after the final wiring settles.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, b := range buses {
			if b.ConnectedCount() != 3 {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, b := range buses {
		if got := b.ConnectedCount(); got != 3 {
			t.Errorf("node %d ConnectedCount = %d, want 3 (stats: %+v)", i, got, b.LinkStats())
		}
	}
}

// TestTCPBusCloseIsIdempotent mirrors the Bus shutdown contract.
func TestTCPBusCloseIsIdempotent(t *testing.T) {
	w, b, _ := soloTCPBus(t, DefaultTCPConfig(1))
	b.Close()
	b.Close()
	w.Start()
	done := make(chan bool, 1)
	w.At(0, func() { done <- b.SendDirect(0, 1, ClassForeground, []byte("x")) })
	if <-done {
		t.Error("send accepted after Close")
	}
}
