package client

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// cluster spins up n replica servers on ephemeral ports and returns
// them plus a genesis view with the given f.
type cluster struct {
	stores  []*RegisterStore
	views   []*ViewState
	servers []*Server
	view    View
}

func newCluster(t testing.TB, n, f int) *cluster {
	t.Helper()
	c := &cluster{view: View{Epoch: 0, F: f, Addrs: map[uint32]string{}}}
	members := make([]uint32, n)
	for i := range members {
		members[i] = uint32(i)
	}
	for i := 0; i < n; i++ {
		store := NewRegisterStore()
		view := NewViewState(0, members)
		srv, err := NewServer("", store, view)
		if err != nil {
			t.Fatalf("server %d: %v", i, err)
		}
		c.stores = append(c.stores, store)
		c.views = append(c.views, view)
		c.servers = append(c.servers, srv)
		c.view.Addrs[uint32(i)] = srv.Addr()
	}
	t.Cleanup(func() {
		for _, s := range c.servers {
			s.Close()
		}
	})
	return c
}

func (c *cluster) advance(epoch uint64, members []uint32) {
	for _, v := range c.views {
		v.Advance(epoch, members)
	}
}

func (c *cluster) client(t *testing.T, writer uint32) *Client {
	t.Helper()
	cl, err := New(Config{View: c.view, Writer: writer, OpTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestQuorumReadWriteRoundTrip(t *testing.T) {
	c := newCluster(t, 3, 1)
	cl := c.client(t, 1)
	if err := cl.Write("k", []byte("v1")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := cl.Read("k")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("Read = %q, want v1", got)
	}
	// Unwritten keys read as empty, not as an error.
	if got, err := cl.Read("missing"); err != nil || len(got) != 0 {
		t.Fatalf("Read(missing) = %q, %v", got, err)
	}
}

// TestWriteSurvivesOneReplicaDown is the availability core: with n=3
// f=1, a dead replica must not block the n−f=2 quorum.
func TestWriteSurvivesOneReplicaDown(t *testing.T) {
	c := newCluster(t, 3, 1)
	c.servers[2].Close()
	cl := c.client(t, 1)
	if err := cl.Write("k", []byte("v")); err != nil {
		t.Fatalf("Write with one replica down: %v", err)
	}
	if got, err := cl.Read("k"); err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Read with one replica down = %q, %v", got, err)
	}
}

// TestOpFailsWithoutQuorum pins the failure mode: with two of three
// replicas down no quorum exists, and the op must surface
// ErrUnavailable after its deadline instead of hanging.
func TestOpFailsWithoutQuorum(t *testing.T) {
	c := newCluster(t, 3, 1)
	c.servers[1].Close()
	c.servers[2].Close()
	cl, err := New(Config{View: c.view, Writer: 1,
		OpTimeout: 300 * time.Millisecond, IOTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer cl.Close()
	if err := cl.Write("k", []byte("v")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Write without quorum = %v, want ErrUnavailable", err)
	}
}

// TestClosedClientFailsFast: an op on a closed client fails at once
// instead of backing off until its deadline.
func TestClosedClientFailsFast(t *testing.T) {
	c := newCluster(t, 3, 1)
	cl, err := New(Config{View: c.view, Writer: 1, OpTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cl.Close()
	before := cl.Stats().Retries
	start := time.Now()
	if _, err := cl.Read("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Read after Close = %v, want ErrUnavailable", err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Errorf("Read after Close took %v, want < 1s", d)
	}
	if got := cl.Stats().Retries; got != before {
		t.Errorf("Read after Close retried: Stats.Retries %d -> %d", before, got)
	}
}

// TestReadRepairConvergesStragglers: a value written while one replica
// was down must propagate to it via read-repair once it is back — the
// reader writes the winning tag back to disagreeing replicas.
func TestReadRepairConvergesStragglers(t *testing.T) {
	c := newCluster(t, 3, 1)
	// Write straight into two stores, simulating a write that completed
	// at a quorum while replica 2 was unreachable.
	c.stores[0].Apply("k", 5, 9, []byte("winner"))
	c.stores[1].Apply("k", 5, 9, []byte("winner"))

	cl := c.client(t, 1)
	// Reads return at first quorum, so any single read may or may not
	// collect the straggler's stale answer; repeated reads must converge
	// it (repair is async; poll).
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := cl.Read("k")
		if err != nil || !bytes.Equal(got, []byte("winner")) {
			t.Fatalf("Read = %q, %v", got, err)
		}
		if ts, w, v := c.stores[2].Get("k"); ts == 5 && w == 9 && bytes.Equal(v, []byte("winner")) {
			break
		}
		if time.Now().After(deadline) {
			ts, w, v := c.stores[2].Get("k")
			t.Fatalf("replica 2 never repaired: ts=%d writer=%d value=%q", ts, w, v)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := cl.Stats(); st.Repairs == 0 {
		t.Fatalf("read saw divergent replicas but issued no repair: %+v", st)
	}
}

// TestStaleViewRetrySucceeds: a client holding an outdated epoch must
// learn the new view from the servers' rejection and complete the op.
func TestStaleViewRetrySucceeds(t *testing.T) {
	c := newCluster(t, 3, 1)
	cl := c.client(t, 1)
	c.advance(3, []uint32{0, 1, 2})
	if err := cl.Write("k", []byte("v")); err != nil {
		t.Fatalf("Write through stale view: %v", err)
	}
	if got := cl.View().Epoch; got != 3 {
		t.Fatalf("client epoch = %d, want 3", got)
	}
	if st := cl.Stats(); st.StaleRetries == 0 {
		t.Fatalf("stale-view write recorded no stale retry: %+v", st)
	}
	if got, err := cl.Read("k"); err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("Read after view change = %q, %v", got, err)
	}
}

// TestWriteStraddlingEpochActivationIsIdempotent is the pinned
// regression for retry-on-stale-view: the epoch activates BETWEEN the
// write's query phase and its store phase, so the store phase is
// rejected as stale and resubmitted under the new view with the SAME
// (ts, writer) tag. The op must succeed, and every replica must have
// advanced its register exactly once — the resubmit is absorbed by
// last-writer-wins, not applied twice.
func TestWriteStraddlingEpochActivationIsIdempotent(t *testing.T) {
	c := newCluster(t, 3, 1)
	cl := c.client(t, 7)
	cl.afterWriteQuery = func() { c.advance(1, []uint32{0, 1, 2}) }

	if err := cl.Write("k", []byte("straddle")); err != nil {
		t.Fatalf("Write straddling epoch activation: %v", err)
	}
	st := cl.Stats()
	if st.StaleRetries == 0 {
		t.Fatalf("op did not straddle the activation (no stale retry): %+v", st)
	}
	for i, s := range c.stores {
		if n := s.Advances("k"); n > 1 {
			t.Errorf("replica %d applied the write %d times, want at most once", i, n)
		}
	}
	// The write is visible under the new epoch.
	if got, err := cl.Read("k"); err != nil || !bytes.Equal(got, []byte("straddle")) {
		t.Fatalf("Read after straddle = %q, %v", got, err)
	}
	// A quorum (not necessarily all three: the rejected store phase acks
	// only under the new view) holds exactly one advance.
	applied := 0
	for _, s := range c.stores {
		if s.Advances("k") == 1 {
			applied++
		}
	}
	if applied < 2 {
		t.Fatalf("only %d replicas hold the write, want a quorum of 2", applied)
	}
}

// TestConcurrentWritersConvergeUnderEpochChurn stresses the same path
// under the race detector: several writers hammer one key while epochs
// activate concurrently; afterwards a fresh read must return one of the
// written values and all replicas must agree after a repair pass.
func TestConcurrentWritersConvergeUnderEpochChurn(t *testing.T) {
	c := newCluster(t, 3, 1)
	const writers = 4
	done := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		go func() {
			cl, err := New(Config{View: c.view, Writer: uint32(w + 1), OpTimeout: 5 * time.Second})
			if err != nil {
				done <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 10; i++ {
				if err := cl.Write("k", []byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for e := uint64(1); e <= 3; e++ {
		time.Sleep(2 * time.Millisecond)
		c.advance(e, []uint32{0, 1, 2})
	}
	for w := 0; w < writers; w++ {
		if err := <-done; err != nil {
			t.Fatalf("writer failed: %v", err)
		}
	}
	cl := c.client(t, 99)
	got, err := cl.Read("k")
	if err != nil || len(got) == 0 {
		t.Fatalf("final Read = %q, %v", got, err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram p99 = %v, want 0", got)
	}
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Microsecond)
	}
	h.Observe(50 * time.Millisecond)
	if p50 := h.Quantile(0.50); p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want ≤ 1ms", p50)
	}
	p999 := h.Quantile(0.999)
	if p999 < 50*time.Millisecond || p999 > 200*time.Millisecond {
		t.Fatalf("p999 = %v, want within a bucket of 50ms", p999)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
}

func TestLoadGeneratorSteadyState(t *testing.T) {
	c := newCluster(t, 3, 1)
	rep, err := RunLoad(LoadConfig{
		Sessions: 8, Duration: 300 * time.Millisecond, Seed: 42,
		NewClient: func(i int) (*Client, error) {
			return New(Config{View: c.view, Writer: uint32(i + 1), OpTimeout: 5 * time.Second})
		},
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.Ops == 0 {
		t.Fatal("load generator completed no ops")
	}
	if rep.Errors != 0 {
		t.Fatalf("steady state had %d errors: %s", rep.Errors, rep)
	}
	if rep.Reads+rep.Writes < rep.Ops {
		t.Fatalf("op accounting inconsistent: %s", rep)
	}
	if rep.P99 == 0 || rep.MaxUnavail == 0 {
		t.Fatalf("SLO fields unpopulated: %s", rep)
	}
}

// TestLoadGeneratorLeaksNoGoroutines pins the teardown contract: after
// RunLoad returns, every session goroutine and every client connection
// goroutine is gone (the campaign leak-test pattern).
func TestLoadGeneratorLeaksNoGoroutines(t *testing.T) {
	c := newCluster(t, 3, 1)
	before := runtime.NumGoroutine()
	_, err := RunLoad(LoadConfig{
		Sessions: 16, Duration: 200 * time.Millisecond, Seed: 7,
		NewClient: func(i int) (*Client, error) {
			return New(Config{View: c.view, Writer: uint32(i + 1), OpTimeout: 5 * time.Second})
		},
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	waitNoLeak(t, before)
}

// waitNoLeak polls until the goroutine count returns to the baseline
// (server-side conn handlers drain asynchronously after client close).
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClientSurvivesServerRestart: kill a replica, restart a fresh
// server on the same address over the same store, and require ops to
// ride through on redial — the transport behavior kill-restart faults
// exercise in the orchestrated cluster.
func TestClientSurvivesServerRestart(t *testing.T) {
	c := newCluster(t, 3, 1)
	cl := c.client(t, 1)
	if err := cl.Write("k", []byte("v1")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	addr := c.servers[0].Addr()
	c.servers[0].Close()
	// Ops keep succeeding on the surviving quorum.
	if err := cl.Write("k", []byte("v2")); err != nil {
		t.Fatalf("Write with replica 0 down: %v", err)
	}
	srv, err := NewServer(addr, c.stores[0], c.views[0])
	if err != nil {
		t.Fatalf("restart server: %v", err)
	}
	t.Cleanup(srv.Close)
	if err := cl.Write("k", []byte("v3")); err != nil {
		t.Fatalf("Write after restart: %v", err)
	}
	if got, err := cl.Read("k"); err != nil || !bytes.Equal(got, []byte("v3")) {
		t.Fatalf("Read after restart = %q, %v", got, err)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty view accepted")
	}
	// f too large: quorum n−f would not intersect itself.
	v := View{Epoch: 0, F: 2, Addrs: map[uint32]string{0: "a", 1: "b", 2: "c"}}
	if _, err := New(Config{View: v}); err == nil {
		t.Error("non-intersecting quorum accepted")
	}
}

func TestRunLoadRejectsBadConfigs(t *testing.T) {
	factory := func(int) (*Client, error) { return nil, nil }
	for name, cfg := range map[string]LoadConfig{
		"zero sessions": {Duration: time.Second, NewClient: factory},
		"zero duration": {Sessions: 1, NewClient: factory},
		"nil factory":   {Sessions: 1, Duration: time.Second},
	} {
		if _, err := RunLoad(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
