package client

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"btr/internal/wire"
)

// quorumLoad is a closed loop of register ops against one cluster: a
// fixed key set, fixed-size values, each key written and then read, so
// a run of n ops is the same work whatever n is. The values are never
// written again: a write's laggard replica goroutine may still be
// encoding its value after Write returns.
type quorumLoad struct {
	cl     *Client
	keys   []string
	values [][]byte
	i      int
}

func newQuorumLoad(t testing.TB, c *cluster) *quorumLoad {
	t.Helper()
	cl, err := New(Config{View: c.view, Writer: 1, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(cl.Close)
	l := &quorumLoad{cl: cl}
	for k := 0; k < 16; k++ {
		l.keys = append(l.keys, fmt.Sprintf("key-%02d", k))
		l.values = append(l.values, bytes.Repeat([]byte{byte(k)}, 64))
	}
	// Warm up: dial every replica, create every register and grow every
	// connection's buffers to their working size.
	l.run(t, 2*len(l.keys))
	return l
}

func (l *quorumLoad) run(t testing.TB, n int) {
	for j := 0; j < n; j++ {
		k := l.i / 2 % len(l.keys)
		var err error
		if l.i%2 == 0 {
			err = l.cl.Write(l.keys[k], l.values[k])
		} else {
			_, err = l.cl.Read(l.keys[k])
		}
		if err != nil {
			t.Fatalf("op %d: %v", l.i, err)
		}
		l.i++
	}
}

// mallocsPerOp is MemStats.Mallocs per op over n ops: every object the
// process allocates, servers and laggard replica goroutines included,
// which is what the benchmark's mallocs_per_op counts.
func (l *quorumLoad) mallocsPerOp(t testing.TB, n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l.run(t, n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// checkAllocPin fails t if the least of three runs of 2,000 ops
// allocates more than quorumOpAllocPin per op: a collection or a
// scheduler hiccup can add a few runtime objects to one of them.
func (l *quorumLoad) checkAllocPin(t *testing.T) {
	least := l.mallocsPerOp(t, 2000)
	for r := 0; r < 2; r++ {
		least = min(least, l.mallocsPerOp(t, 2000))
	}
	t.Logf("%.2f mallocs per op (pin %v)", least, quorumOpAllocPin)
	if least > quorumOpAllocPin {
		t.Fatalf("%.2f mallocs per op, pin %v", least, quorumOpAllocPin)
	}
}

// quorumOpAllocPin is the ceiling on mallocs per op of
// TestQuorumOpAllocPin and TestQuorumOpAllocPinReplicaDown, one above
// the 2.5 both measure, with or without -race.
const quorumOpAllocPin = 3.5

// TestQuorumOpAllocPin pins what one register op allocates against four
// in-process replicas: its key and its answer collector, and for a read
// the one value it returns. A broadcast allocates nothing per replica,
// a replica overwrites a register's value in place and copies a read
// value into its connection's buffer. It measured about 63 per op when
// every frame had a fresh body, the parsers copied Key and Value and
// every broadcast started a goroutine per replica, and about 6 while a
// read copied every replica's value and a replica every written one.
func TestQuorumOpAllocPin(t *testing.T) {
	if testing.Short() {
		t.Skip("2,000 loopback ops")
	}
	newQuorumLoad(t, newCluster(t, 4, 1)).checkAllocPin(t)
}

// TestQuorumOpAllocPinReplicaDown: with one replica of four closed, an
// op costs what it costs with all four up. The closed replica's jobs
// fail without a dial until its redial time, so it is dialed a few
// times per second, not once per op (about 18 objects per failed dial).
func TestQuorumOpAllocPinReplicaDown(t *testing.T) {
	if testing.Short() {
		t.Skip("2,000 loopback ops")
	}
	c := newCluster(t, 4, 1)
	c.servers[3].Close()
	newQuorumLoad(t, c).checkAllocPin(t)
}

// BenchmarkQuorumOp is one register op (half reads, half writes) against
// four in-process replicas on loopback.
func BenchmarkQuorumOp(b *testing.B) {
	l := newQuorumLoad(b, newCluster(b, 4, 1))
	b.ReportAllocs()
	b.ResetTimer()
	l.run(b, b.N)
}

// BenchmarkQuorumOpReplicaDown is BenchmarkQuorumOp with one replica of
// the four closed: the fault path's cost per op.
func BenchmarkQuorumOpReplicaDown(b *testing.B) {
	c := newCluster(b, 4, 1)
	c.servers[3].Close()
	l := newQuorumLoad(b, c)
	b.ReportAllocs()
	b.ResetTimer()
	l.run(b, b.N)
}

// TestReadValueOwnedByCaller: a value Read returns is the caller's. The
// response it came from was parsed in place in the connection's buffer,
// which every later op on the same connections overwrites.
func TestReadValueOwnedByCaller(t *testing.T) {
	c := newCluster(t, 4, 1)
	cl := c.client(t, 1)
	want := bytes.Repeat([]byte("kept"), 16)
	if err := cl.Write("k", want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := cl.Read("k")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	for i := 0; i < 100; i++ {
		if i%2 == 0 {
			err = cl.Write("other", bytes.Repeat([]byte{byte(i)}, len(want)))
		} else {
			_, err = cl.Read("other")
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("value returned by Read changed under later ops: %q", got)
	}
}

// handle answers req as a server connection does, with a value buffer
// of its own.
func (s *Server) handle(req wire.QRequest) wire.QResponse {
	var val []byte
	return s.respond(req, &val)
}

// TestStoreCopiesAppliedValue: the server parses a request in place in
// its connection's buffer and must keep none of those bytes. Scribbling
// on the frame after the write is handled leaves the register as
// written, key and value.
func TestStoreCopiesAppliedValue(t *testing.T) {
	store := NewRegisterStore()
	srv := &Server{store: store, view: NewViewState(0, []uint32{0, 1, 2})}
	frame, err := wire.AppendQRequest(nil, wire.QRequest{
		Op: wire.QOpSet, OpID: 1, TS: 4, Writer: 2, Key: []byte("k"), Value: []byte("value"),
	})
	if err != nil {
		t.Fatalf("AppendQRequest: %v", err)
	}
	req, err := wire.ParseQRequest(frame[5:])
	if err != nil {
		t.Fatalf("ParseQRequest: %v", err)
	}
	if resp := srv.handle(req); resp.Status != wire.QStatusOK {
		t.Fatalf("handle status %d", resp.Status)
	}
	for i := range frame {
		frame[i] = 0xff
	}
	if ts, w, v := store.Get("k"); ts != 4 || w != 2 || string(v) != "value" {
		t.Fatalf("after scribbling on the frame: Get = (%d, %d, %q), want (4, 2, \"value\")", ts, w, v)
	}
	if store.Keys() != 1 {
		t.Fatalf("store holds %d keys, want 1", store.Keys())
	}
}

// TestStoreReadsWholeValues: a register's value is overwritten in place,
// so a read must copy it out under the store's lock. Readers that reuse
// their buffers, as server connections do, race a writer of values of
// varying length on one key; every value read is the one written under
// the tag read with it, whole.
func TestStoreReadsWholeValues(t *testing.T) {
	store := NewRegisterStore()
	key := []byte("k")
	values := make([][]byte, 48)
	for i := range values {
		values[i] = bytes.Repeat([]byte{byte(i + 1)}, 16+i)
	}
	const writes = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ts := uint64(1); ts <= writes; ts++ {
			store.applyKey(key, ts, 1, values[ts%uint64(len(values))])
		}
	}()
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				select {
				case <-done:
					return
				default:
				}
				ts, _, v := store.getKey(key, buf)
				buf = v
				if ts == 0 {
					continue
				}
				if want := values[ts%uint64(len(values))]; !bytes.Equal(v, want) {
					t.Errorf("tag %d read %x, written %x", ts, v, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStaleViewMembersSurviveBufferReuse: a stale-view answer's member
// list is the client's own, still intact after the same connection has
// read further answers (another stale view, then a large value) into its
// buffer, and the client can adopt the view it names.
func TestStaleViewMembersSurviveBufferReuse(t *testing.T) {
	c := newCluster(t, 4, 1)
	cl := c.client(t, 1)
	c.stores[0].Apply("big", 1, 1, bytes.Repeat([]byte{0xaa}, 256))
	deadline := time.Now().Add(5 * time.Second)
	get := func(epoch uint64, key string) wire.QResponse {
		t.Helper()
		resp, err := cl.exchange(0, c.view.Addrs[0], wire.QRequest{
			Op: wire.QOpGet, OpID: cl.opid.Add(1), Epoch: epoch, Key: []byte(key),
		}, deadline)
		if err != nil {
			t.Fatalf("exchange: %v", err)
		}
		return resp
	}
	c.views[0].Advance(2, []uint32{0, 1, 2})
	first := get(0, "k")
	if first.Status != wire.QStatusStaleView || first.Epoch != 2 {
		t.Fatalf("first answer: status %d epoch %d, want stale view at 2", first.Status, first.Epoch)
	}
	c.views[0].Advance(3, []uint32{3, 2, 1, 0})
	if second := get(0, "k"); second.Status != wire.QStatusStaleView || len(second.Members) != 4 {
		t.Fatalf("second answer: status %d members %v", second.Status, second.Members)
	}
	if big := get(3, "big"); big.Status != wire.QStatusOK || len(big.Value) != 256 {
		t.Fatalf("big read: status %d, %d value bytes", big.Status, len(big.Value))
	}
	if want := []uint32{0, 1, 2}; !slices.Equal(first.Members, want) {
		t.Fatalf("first answer's members became %v after buffer reuse, want %v", first.Members, want)
	}
	if !cl.adoptView(first.Epoch, first.Members) {
		t.Fatal("client did not adopt the announced view")
	}
	if v := cl.View(); v.Epoch != 2 || len(v.Addrs) != 3 {
		t.Fatalf("adopted view epoch %d with %d members, want epoch 2 with 3", v.Epoch, len(v.Addrs))
	}
}

// TestRepairSendsItsOwnCopy: read-repair write-backs run after Read has
// returned the winning value to its caller, who may overwrite it at
// once; the straggler must still be repaired with the value as read.
func TestRepairSendsItsOwnCopy(t *testing.T) {
	c := newCluster(t, 3, 1)
	c.stores[0].Apply("k", 5, 9, []byte("winner"))
	c.stores[1].Apply("k", 5, 9, []byte("winner"))
	cl := c.client(t, 1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := cl.Read("k")
		if err != nil || string(got) != "winner" {
			t.Fatalf("Read = %q, %v", got, err)
		}
		for i := range got {
			got[i] = 'X'
		}
		if ts, _, v := c.stores[2].Get("k"); ts == 5 {
			if string(v) != "winner" {
				t.Fatalf("straggler repaired with %q, want the value as read", v)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replica 2 never repaired")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStalledReplicaCostsOnlyItsVote: a replica that accepts and never
// answers must not slow an op down to the IO timeout, neither while its
// sender waits on it nor once its queue is full.
func TestStalledReplicaCostsOnlyItsVote(t *testing.T) {
	c := newCluster(t, 3, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var held []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, nc)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepted
		for _, nc := range held {
			nc.Close()
		}
	})
	c.servers[2].Close()
	c.view.Addrs[2] = ln.Addr().String()

	const ioTimeout = 5 * time.Second
	cl, err := New(Config{View: c.view, Writer: 1, OpTimeout: 10 * time.Second, IOTimeout: ioTimeout})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer cl.Close()
	start := time.Now()
	for i := 0; i < 2*senderQueue; i++ {
		if i%2 == 0 {
			err = cl.Write("k", []byte{byte(i)})
		} else {
			_, err = cl.Read("k")
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if took := time.Since(start); took >= ioTimeout/2 {
			t.Fatalf("%d ops with one replica stalled took %v, IO timeout %v", i+1, took, ioTimeout)
		}
	}
}

// delayedReplica listens in front of a replica at addr and forwards
// each chunk a client sends only after delay; answers come back at
// once. It returns the address to dial.
func delayedReplica(t *testing.T, addr string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", addr)
			if err != nil {
				in.Close()
				continue
			}
			go func() {
				io.Copy(in, out)
				in.Close()
			}()
			go func() {
				defer out.Close()
				buf := make([]byte, 4096)
				for {
					n, err := in.Read(buf)
					if n > 0 {
						time.Sleep(delay)
						if _, err := out.Write(buf[:n]); err != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestWriteCountsOnlyItsOwnAcks: an op's broadcasts share one round, so
// an answer that arrives late from its tag query must not count as an
// ack of its store phase. With replica 1 slow enough that its tag-query
// answer lands while the store phase still waits for replica 2, counting
// it would complete the write while only replica 0 holds it.
func TestWriteCountsOnlyItsOwnAcks(t *testing.T) {
	c := newCluster(t, 3, 1)
	c.view.Addrs[1] = delayedReplica(t, c.view.Addrs[1], 250*time.Millisecond)
	c.view.Addrs[2] = delayedReplica(t, c.view.Addrs[2], 150*time.Millisecond)
	cl := c.client(t, 1)
	if err := cl.Write("k", []byte("v")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	held := 0
	for _, s := range c.stores {
		if _, _, v := s.Get("k"); string(v) == "v" {
			held++
		}
	}
	if held < c.view.Quorum() {
		t.Fatalf("Write returned while %d replicas held the value, quorum %d", held, c.view.Quorum())
	}
}

// TestOneClientManyGoroutines shares one client, and so each replica's
// sender and connection, among goroutines that each write and read back
// a key of their own: every read must return that goroutine's last
// write, whatever the others' answers were doing on the same senders.
func TestOneClientManyGoroutines(t *testing.T) {
	c := newCluster(t, 4, 1)
	cl := c.client(t, 1)
	const workers, ops = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", w)
			for i := 0; i < ops; i++ {
				want := []byte(fmt.Sprintf("w%d-%d", w, i))
				if err := cl.Write(key, want); err != nil {
					t.Errorf("worker %d write %d: %v", w, i, err)
					return
				}
				got, err := cl.Read(key)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("worker %d read %d = %q, %v; want %q", w, i, got, err, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestReadWritesBackBeforeReturning: a read that adopts a tag some of
// its quorum lacks stores it at a quorum before returning. Otherwise a
// second reader could meet a quorum still holding the older tag after a
// first reader had returned the newer value. Replicas 1 and 2 answer
// 100 ms late and replica 3 is down, so the read's quorum is 0, 1 and 2
// and only replica 0 holds the newer tag.
func TestReadWritesBackBeforeReturning(t *testing.T) {
	c := newCluster(t, 4, 1)
	c.stores[0].Apply("k", 5, 9, []byte("new"))
	for _, i := range []uint32{1, 2} {
		c.stores[i].Apply("k", 3, 9, []byte("old"))
		c.view.Addrs[i] = delayedReplica(t, c.view.Addrs[i], 100*time.Millisecond)
	}
	c.servers[3].Close()
	cl := c.client(t, 1)
	got, err := cl.Read("k")
	if err != nil || string(got) != "new" {
		t.Fatalf("Read = %q, %v; want \"new\"", got, err)
	}
	for _, i := range []int{1, 2} {
		if ts, _, v := c.stores[i].Get("k"); ts != 5 || string(v) != "new" {
			t.Errorf("Read returned while replica %d held (%d, %q), want (5, \"new\")", i, ts, v)
		}
	}
	if st := cl.Stats(); st.Repairs != 2 {
		t.Errorf("Stats.Repairs = %d, want the 2 replicas that returned tag 3", st.Repairs)
	}
}

// TestLaggardWriteBackSendsItsOwnCopy: a read's write-back returns at a
// quorum, and a laggard replica's Set is encoded later, after Read's
// caller may have overwritten the value it got. Replica 2 answers
// 100 ms late, so its Set is encoded well after Read returns.
func TestLaggardWriteBackSendsItsOwnCopy(t *testing.T) {
	c := newCluster(t, 3, 1)
	c.stores[0].Apply("k", 5, 9, []byte("winner"))
	c.stores[1].Apply("k", 3, 9, []byte("loser!"))
	c.view.Addrs[2] = delayedReplica(t, c.view.Addrs[2], 100*time.Millisecond)
	cl := c.client(t, 1)
	got, err := cl.Read("k")
	if err != nil || string(got) != "winner" {
		t.Fatalf("Read = %q, %v; want \"winner\"", got, err)
	}
	for i := range got {
		got[i] = 'X'
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ts, _, v := c.stores[2].Get("k"); ts == 5 {
			if string(v) != "winner" {
				t.Fatalf("laggard repaired with %q, want the value as read", v)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("replica 2 never repaired")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDownReplicaIsNotRedialedPerOp: a replica that accepts connections
// and closes them at once is redialed on a backoff, not by every op, and
// once it serves again it gets this client's ops within BackoffCap.
func TestDownReplicaIsNotRedialedPerOp(t *testing.T) {
	c := newCluster(t, 4, 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var accepted atomic.Int64
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			nc.Close()
		}
	}()
	c.servers[0].Close()
	c.view.Addrs[0] = ln.Addr().String()

	const base, limit = 2 * time.Millisecond, 20 * time.Millisecond
	cl, err := New(Config{View: c.view, Writer: 1, OpTimeout: 5 * time.Second, BackoffBase: base, BackoffCap: limit})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer cl.Close()
	const ops = 1000
	start := time.Now()
	for i := 0; i < ops; i++ {
		if i%2 == 0 {
			err = cl.Write("k", []byte{byte(i)})
		} else {
			_, err = cl.Read("k")
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	// Waits of base, 2·base, … up to the cap, then one per cap.
	bound := int64(bits.Len(uint(limit/base)) + 2 + int(elapsed/limit))
	if n := accepted.Load(); n > bound {
		t.Fatalf("%d connections to the flapping replica in %d ops over %v, want at most %d", n, ops, elapsed, bound)
	}
	t.Logf("%d connections in %d ops over %v (bound %d)", accepted.Load(), ops, elapsed, bound)

	// Restart the replica on the same address, and close another one so
	// that no quorum forms without it.
	ln.Close()
	<-stopped
	srv, err := NewServer(c.view.Addrs[0], c.stores[0], c.views[0])
	if err != nil {
		t.Fatalf("restart replica 0: %v", err)
	}
	t.Cleanup(srv.Close)
	c.servers[3].Close()
	time.Sleep(limit)
	retries := cl.Stats().Retries
	if err := cl.Write("after", []byte("v")); err != nil {
		t.Fatalf("Write after restart: %v", err)
	}
	if got := cl.Stats().Retries; got != retries {
		t.Errorf("Write after restart retried %d times: replica 0 was not redialed", got-retries)
	}
	if _, _, v := c.stores[0].Get("after"); string(v) != "v" {
		t.Errorf("restarted replica 0 holds %q, want \"v\"", v)
	}
}
