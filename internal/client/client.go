// Package client is the serving surface over the BTR core: a replicated
// register API that external clients drive against a live deployment's
// node processes. The replication protocol is client-driven, ABD-style
// (the freestore lineage): servers hold a passive tagged register store
// and never talk to each other; a client reads by querying a quorum and
// adopting the largest (ts, writer) tag it sees — storing the winner at
// a quorum before returning when any queried replica disagreed
// (read-repair) — and writes by
// querying a quorum for the largest tag, then storing its value under a
// strictly larger one. With n replicas and at most f crashed or
// partitioned, every n−f quorum intersects every other in at least one
// correct replica, so reads always see the newest completed write.
//
// Operations are epoch-aware: every request carries the client's view
// of the active membership epoch, and a server whose epoch has moved on
// rejects the request with its current epoch and member list. The
// client adopts the newer view and resubmits the SAME tagged operation
// — last-writer-wins on (ts, writer) makes the resubmit idempotent, so
// an op that straddles an epoch activation completes exactly once.
// Transient transport failures (a replica being kill-restarted, a
// partition healing) are ridden out with bounded exponential backoff;
// an op fails only after its deadline, which is how client-visible
// unavailability is measured rather than assumed.
package client

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"btr/internal/wire"
)

// View is a client's picture of the active epoch: which member slots
// serve the register and where they listen. Quorum is n−f.
type View struct {
	Epoch uint64
	F     int
	Addrs map[uint32]string // member slot → client-service address
}

// Members returns the view's member slots in ascending order.
func (v View) Members() []uint32 {
	ms := make([]uint32, 0, len(v.Addrs))
	for m := range v.Addrs {
		ms = append(ms, m)
	}
	slices.Sort(ms)
	return ms
}

// Quorum returns the view's read/write quorum size, n−f.
func (v View) Quorum() int { return len(v.Addrs) - v.F }

// Config parameterizes one client.
type Config struct {
	// View is the initial (possibly stale) view. The client follows
	// newer epochs whose members all appear in its address table.
	View View
	// Writer tags this client's writes (must be unique per writer for
	// the (ts, writer) order to be total).
	Writer uint32
	// OpTimeout bounds one Read/Write end to end, retries included
	// (default 10s).
	OpTimeout time.Duration
	// IOTimeout bounds one request/response exchange with one replica
	// (default 2s).
	IOTimeout time.Duration
	// BackoffBase/BackoffCap bound the exponential backoff of op retries
	// and of redials to a down replica (defaults 2ms, 250ms).
	BackoffBase time.Duration
	BackoffCap  time.Duration
}

// Client is one register client: a view, one lazily-dialed connection
// and one sender goroutine per replica, and a quorum engine. Safe for
// concurrent use; ops from one Client to one replica serialize on that
// replica's sender.
type Client struct {
	cfg Config

	mu      sync.Mutex
	view    View
	members []uint32 // view.Members(), sorted once per view
	conns   map[uint32]*replicaConn
	senders map[uint32]chan job
	closed  atomic.Bool    // set once, under mu
	running sync.WaitGroup // one per sender goroutine

	opid atomic.Uint64

	// afterWriteQuery, when set (tests only), runs between a write's
	// query phase and its store phase — the seam the epoch-straddle
	// tests use to activate a new epoch mid-operation.
	afterWriteQuery func()

	// Counters the load generator aggregates (atomic; read via Stats).
	retries      atomic.Uint64
	staleRetries atomic.Uint64
	repairs      atomic.Uint64
}

// Stats is a client's retry/repair counters.
type Stats struct {
	Retries      uint64 // op-level retries (backoff rounds)
	StaleRetries uint64 // retries caused by a stale-view rejection
	Repairs      uint64 // replicas a read found holding an older tag
}

// ErrUnavailable is returned when an operation exhausts its deadline
// without assembling a quorum.
var ErrUnavailable = errors.New("client: quorum unavailable")

// New builds a client over an initial view.
func New(cfg Config) (*Client, error) {
	if len(cfg.View.Addrs) == 0 {
		return nil, fmt.Errorf("client: view has no members")
	}
	if cfg.View.Quorum() <= len(cfg.View.Addrs)/2 {
		return nil, fmt.Errorf("client: quorum %d of %d does not intersect itself (f too large)",
			cfg.View.Quorum(), len(cfg.View.Addrs))
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 2 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 2 * time.Millisecond
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = 250 * time.Millisecond
	}
	return &Client{
		cfg:     cfg,
		view:    cfg.View,
		members: cfg.View.Members(),
		conns:   map[uint32]*replicaConn{},
		senders: map[uint32]chan job{},
	}, nil
}

// Stats snapshots the client's retry/repair counters.
func (c *Client) Stats() Stats {
	return Stats{
		Retries:      c.retries.Load(),
		StaleRetries: c.staleRetries.Load(),
		Repairs:      c.repairs.Load(),
	}
}

// View returns the client's current view (it advances as servers
// announce newer epochs).
func (c *Client) View() View {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

// current returns the client's view and its sorted member list, which
// is shared and never written.
func (c *Client) current() (View, []uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view, c.members
}

// Close tears down every replica connection, stops the senders and
// refuses new dials; it returns once every sender has exited. In-flight
// ops fail.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.conns
	c.conns = map[uint32]*replicaConn{}
	for m, jobs := range c.senders {
		close(jobs)
		delete(c.senders, m)
	}
	c.closed.Store(true)
	c.mu.Unlock()
	for _, rc := range conns {
		rc.close()
	}
	c.running.Wait()
}

// Read performs a quorum read of key: query n−f replicas and adopt the
// largest (ts, writer) tag. When a queried replica returned an older
// tag, Read first stores the winner at a quorum, as a write's store
// phase does (read-repair), so no later read can return an older value,
// even if the winner's writer crashed mid-write.
func (c *Client) Read(key string) ([]byte, error) {
	if len(key) > wire.MaxQKey {
		return nil, fmt.Errorf("client: key exceeds %d bytes", wire.MaxQKey)
	}
	deadline := time.Now().Add(c.cfg.OpTimeout)
	opid := c.opid.Add(1)
	k := []byte(key)
	r := newRound(true)
	var buf [maxAcks]ack
	acks, err := c.phase(wire.QRequest{Op: wire.QOpGet, OpID: opid, Key: k}, r, buf[:0], deadline)
	if err != nil {
		return nil, err
	}
	older := 0
	for _, a := range acks {
		if tagLess(a.resp.TS, a.resp.Writer, r.ts, r.writer) {
			older++
		}
	}
	if older > 0 {
		c.repairs.Add(uint64(older))
		// A laggard may still be encoding the write-back's value after
		// Read returns r.value to the caller, so it sends a copy, and
		// the write-back's acks must not overwrite r.value.
		r.keep = false
		if _, err := c.phase(wire.QRequest{
			Op: wire.QOpSet, OpID: opid, TS: r.ts, Writer: r.writer, Key: k, Value: bytes.Clone(r.value),
		}, r, buf[:0], deadline); err != nil {
			return nil, err
		}
	}
	return r.value, nil
}

// Write performs a quorum write of key: query n−f replicas for the
// largest tag, then store value under (maxts+1, writer) at n−f
// replicas. A retry — backoff or stale-view — resubmits the SAME tag,
// which last-writer-wins makes idempotent. Write returns at a quorum,
// while a laggard replica's request may still be encoding value, so the
// caller must not modify value afterwards.
func (c *Client) Write(key string, value []byte) error {
	if len(key) > wire.MaxQKey {
		return fmt.Errorf("client: key exceeds %d bytes", wire.MaxQKey)
	}
	if len(value) > wire.MaxQValue {
		return fmt.Errorf("client: value exceeds %d bytes", wire.MaxQValue)
	}
	deadline := time.Now().Add(c.cfg.OpTimeout)
	opid := c.opid.Add(1)
	k := []byte(key)
	r := newRound(false)
	var buf [maxAcks]ack
	// Phase 1: learn the largest committed tag from a quorum. Only the
	// tags are read, so the round keeps no value.
	if _, err := c.phase(wire.QRequest{Op: wire.QOpGet, OpID: opid, Key: k}, r, buf[:0], deadline); err != nil {
		return err
	}
	if c.afterWriteQuery != nil {
		c.afterWriteQuery()
	}
	// Phase 2: store under the chosen tag.
	_, err := c.phase(wire.QRequest{
		Op: wire.QOpSet, OpID: opid, TS: r.ts + 1, Writer: c.cfg.Writer, Key: k, Value: value,
	}, r, buf[:0], deadline)
	return err
}

// phase broadcasts req, under the current view's epoch, until n−f
// replicas answer OK, and returns those answers in acks. req is the same
// in every retry, tag included — that is the idempotence.
func (c *Client) phase(req wire.QRequest, r *round, acks []ack, deadline time.Time) ([]ack, error) {
	for attempt := 0; ; attempt++ {
		view, members := c.current()
		req.Epoch = view.Epoch
		got, stale := c.broadcast(view, members, req, r, acks[:0], deadline)
		if len(got) >= view.Quorum() {
			return got, nil
		}
		if err := c.retryGate(stale, attempt, deadline); err != nil {
			return nil, err
		}
	}
}

// ack is one replica's answer to a job: a response or the error that
// took its place. broadcast returns the OK responses.
type ack struct {
	resp wire.QResponse
	err  error
}

// maxAcks sizes the ack buffer an op keeps on its stack and the answers
// its round holds without growing; a view with more members grows them.
const maxAcks = 8

// senderQueue bounds the requests waiting for one replica's sender. A
// healthy replica's queue holds about one request per op in flight on
// the client; a stalled one's fills, and a broadcast whose request does
// not fit counts that replica as failed at once, so the backlog a stall
// leaves is bounded and costs no op more than that replica's vote.
const senderQueue = 64

// job is one request for a replica's sender. Its answer goes to round,
// tagged with the round's generation when the job was queued.
type job struct {
	member   uint32
	addr     string
	req      wire.QRequest
	deadline time.Time
	round    *round
	gen      uint64
}

// round collects the answers to an op's current broadcast. An op reuses
// it for each of its broadcasts: retiring one bumps gen, so the answer
// of a laggard from an earlier broadcast is dropped when it arrives.
//
// Of a generation's OK answers, the round keeps the largest tag and, if
// keep is set, that answer's value in one buffer per op, copied in
// deliver: until deliver returns, a value aliases its sender's
// connection buffer. Both stay readable once the broadcast returns.
type round struct {
	mu      sync.Mutex
	cond    sync.Cond
	gen     uint64
	results []ack
	buf     [maxAcks]ack

	keep   bool
	seen   bool // an OK answer of the current generation was delivered
	writer uint32
	ts     uint64
	value  []byte
}

func newRound(keep bool) *round {
	r := &round{keep: keep}
	r.cond.L = &r.mu
	r.results = r.buf[:0]
	return r
}

// deliver adds an answer to generation gen, if that is still current.
func (r *round) deliver(gen uint64, res ack) {
	r.mu.Lock()
	if gen == r.gen {
		if res.err == nil && res.resp.Status == wire.QStatusOK &&
			(!r.seen || tagLess(r.ts, r.writer, res.resp.TS, res.resp.Writer)) {
			r.seen, r.ts, r.writer = true, res.resp.TS, res.resp.Writer
			if r.keep {
				r.value = append(r.value[:0], res.resp.Value...)
			}
		}
		res.resp.Value = nil
		r.results = append(r.results, res)
		r.cond.Signal()
	}
	r.mu.Unlock()
}

// enqueue hands j to its replica's sender, starting the sender on first
// use, and reports whether it fit. c.mu must be held.
func (c *Client) enqueue(j job) bool {
	if c.closed.Load() {
		return false
	}
	jobs, ok := c.senders[j.member]
	if !ok {
		jobs = make(chan job, senderQueue)
		c.senders[j.member] = jobs
		c.running.Add(1)
		go c.send(jobs)
	}
	select {
	case jobs <- j:
		return true
	default:
		return false
	}
}

// send is a replica's sender: it runs the replica's jobs in order until
// the client closes its queue. A job whose op is past its deadline is
// answered with ErrUnavailable without touching the connection.
func (c *Client) send(jobs <-chan job) {
	defer c.running.Done()
	for j := range jobs {
		res := ack{err: ErrUnavailable}
		if time.Now().Before(j.deadline) {
			res.resp, res.err = c.exchange(j.member, j.addr, j.req, j.deadline)
		}
		j.round.deliver(j.gen, res)
	}
}

// broadcast queues req for every member of view (members, sorted) and
// appends the OK answers to acks, returning as soon as a quorum is
// assembled — a stalled or partitioned replica must cost nothing beyond
// its missing vote, not drag every op's latency to the IO timeout. A
// laggard's sender finishes the job on its own deadline, and the answer
// is dropped (r has moved on to its next generation). The acks carry no
// value; r holds the largest tag and its value (see round). Stale-view
// rejections adopt the newer view immediately (the retry then runs
// against it); transport errors drop the replica's connection for a
// redial (see conn).
func (c *Client) broadcast(view View, members []uint32, req wire.QRequest, r *round, acks []ack, deadline time.Time) (_ []ack, stale bool) {
	queued := 0
	c.mu.Lock()
	for _, m := range members {
		if c.enqueue(job{member: m, addr: view.Addrs[m], req: req, deadline: deadline, round: r, gen: r.gen}) {
			queued++
		}
	}
	c.mu.Unlock()
	var staleEpoch uint64
	var staleMembers []uint32
	r.mu.Lock()
	for i := 0; i < queued && len(acks) < view.Quorum(); i++ {
		for len(r.results) <= i {
			r.cond.Wait()
		}
		res := &r.results[i]
		if res.err != nil {
			continue
		}
		switch res.resp.Status {
		case wire.QStatusOK:
			acks = append(acks, *res)
		case wire.QStatusStaleView:
			if res.resp.Epoch > view.Epoch && res.resp.Epoch > staleEpoch {
				staleEpoch, staleMembers = res.resp.Epoch, res.resp.Members
			}
		}
	}
	r.gen++
	r.seen = false
	clear(r.results)
	r.results = r.results[:0]
	r.mu.Unlock()
	if staleEpoch > 0 {
		stale = c.adoptView(staleEpoch, staleMembers)
	}
	return acks, stale
}

// retryGate decides whether a failed round retries: inside the deadline
// it sleeps the bounded exponential backoff (skipping the sleep when a
// newer view was just adopted — the retry is not futile repetition, it
// is the stale-view resubmit) and returns nil; past the deadline, or
// once the client is closed, it returns ErrUnavailable.
func (c *Client) retryGate(stale bool, attempt int, deadline time.Time) error {
	if c.closed.Load() {
		return fmt.Errorf("%w (client closed)", ErrUnavailable)
	}
	if !time.Now().Before(deadline) {
		return fmt.Errorf("%w (deadline after %d attempts)", ErrUnavailable, attempt+1)
	}
	c.retries.Add(1)
	if stale {
		c.staleRetries.Add(1)
		return nil
	}
	time.Sleep(min(c.backoff(attempt), time.Until(deadline)))
	return nil
}

// backoff is the wait after n consecutive failures: BackoffBase << n,
// capped at BackoffCap.
func (c *Client) backoff(n int) time.Duration {
	d := c.cfg.BackoffBase << uint(n)
	if d > c.cfg.BackoffCap || d <= 0 {
		d = c.cfg.BackoffCap
	}
	return d
}

// adoptView installs the newer epoch's view: the client keeps its
// address table and restricts it to the announced members (the slot
// universe is fixed). Returns true if the view advanced.
func (c *Client) adoptView(epoch uint64, members []uint32) bool {
	addrs := map[uint32]string{}
	c.mu.Lock()
	for _, m := range members {
		if a, ok := c.view.Addrs[m]; ok {
			addrs[m] = a
		}
	}
	f := c.view.F
	c.mu.Unlock()
	if len(addrs) != len(members) || len(addrs) == 0 {
		return false
	}
	next := View{Epoch: epoch, F: f, Addrs: addrs}
	if next.Quorum() <= len(next.Addrs)/2 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if next.Epoch <= c.view.Epoch {
		return false
	}
	c.view = next
	c.members = next.Members()
	// Drop the connection slots and senders of replicas that left the
	// membership.
	for m, rc := range c.conns {
		if _, ok := next.Addrs[m]; !ok {
			rc.close()
			delete(c.conns, m)
		}
	}
	for m, jobs := range c.senders {
		if _, ok := next.Addrs[m]; !ok {
			close(jobs)
			delete(c.senders, m)
		}
	}
	return true
}

// exchange performs one request/response with one replica, dialing (or
// redialing) its connection as needed. The response's value aliases the
// connection's buffer until the replica's next exchange. A transport
// error closes the connection so the next attempt redials.
func (c *Client) exchange(member uint32, addr string, req wire.QRequest, deadline time.Time) (wire.QResponse, error) {
	rc, err := c.conn(member, addr, deadline)
	if err != nil {
		return wire.QResponse{}, err
	}
	resp, err := rc.roundTrip(req, c.cfg.IOTimeout, deadline)
	if err != nil {
		c.dropConn(member, rc)
		return wire.QResponse{}, err
	}
	rc.proven.Store(true)
	return resp, nil
}

// conn returns member's connection at addr, dialing one if there is
// none. A failed dial, or a failed first exchange on a fresh connection,
// leaves a connection slot without a net.Conn in its place (backOff),
// which fails the replica's jobs without a syscall until its redial
// time; the schedule resets at the first successful exchange.
func (c *Client) conn(member uint32, addr string, deadline time.Time) (*replicaConn, error) {
	c.mu.Lock()
	rc, ok := c.conns[member]
	c.mu.Unlock()
	fails := 0
	if ok && rc.addr == addr {
		if rc.nc != nil {
			return rc, nil
		}
		if time.Now().Before(rc.redial) {
			return nil, ErrUnavailable
		}
		fails = rc.fails
	}
	if c.closed.Load() {
		return nil, ErrUnavailable
	}
	dialTO := min(c.cfg.IOTimeout, time.Until(deadline))
	if dialTO <= 0 {
		return nil, ErrUnavailable
	}
	nc, err := net.DialTimeout("tcp", addr, dialTO)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.backOff(member, addr, fails)
		return nil, err
	}
	if c.closed.Load() {
		go nc.Close()
		return nil, ErrUnavailable
	}
	if old, ok := c.conns[member]; ok && old.addr == addr && old.nc != nil {
		// Lost the dial race; use the established connection.
		go nc.Close()
		return old, nil
	} else if ok {
		old.close()
	}
	rc = &replicaConn{addr: addr, fails: fails, nc: nc, br: bufio.NewReader(nc)}
	c.conns[member] = rc
	return rc, nil
}

// backOff replaces member's connection slot with its redial time at
// addr, after fails earlier failures. c.mu must be held.
func (c *Client) backOff(member uint32, addr string, fails int) {
	if old, ok := c.conns[member]; ok {
		old.close()
	}
	c.conns[member] = &replicaConn{addr: addr, fails: fails + 1, redial: time.Now().Add(c.backoff(fails))}
}

// dropConn forgets a connection whose exchange failed, backing its
// replica off if no exchange on it succeeded.
func (c *Client) dropConn(member uint32, rc *replicaConn) {
	c.mu.Lock()
	if cur, ok := c.conns[member]; ok && cur == rc {
		delete(c.conns, member)
		if !rc.proven.Load() {
			c.backOff(member, rc.addr, rc.fails)
		}
	}
	c.mu.Unlock()
	rc.close()
}

// replicaConn is one client→replica TCP connection. Requests from this
// client serialize on it (lockstep request/response), which keeps the
// framing trivially unambiguous. Its request and response frames are
// built and read in two buffers that live as long as the connection.
// Without a net.Conn it holds a down replica's redial time.
type replicaConn struct {
	addr   string
	fails  int         // failed dials and first exchanges before this one
	redial time.Time   // no dial before then, if nc is nil
	proven atomic.Bool // an exchange on it succeeded
	mu     sync.Mutex
	nc     net.Conn
	br     *bufio.Reader
	buf    []byte // request frames
	in     []byte // response frames, parsed in place
}

// roundTrip sends req and returns the response to it. The response is
// parsed out of rc.in, which the next round trip overwrites, so its
// value is valid only until then; a member list is decoded into a slice
// of its own.
func (rc *replicaConn) roundTrip(req wire.QRequest, ioTimeout time.Duration, deadline time.Time) (wire.QResponse, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	to := time.Now().Add(ioTimeout)
	if deadline.Before(to) {
		to = deadline
	}
	if err := rc.nc.SetDeadline(to); err != nil {
		return wire.QResponse{}, err
	}
	frame, err := wire.AppendQRequest(rc.buf[:0], req)
	if err != nil {
		return wire.QResponse{}, err
	}
	rc.buf = frame[:0]
	if _, err := rc.nc.Write(frame); err != nil {
		return wire.QResponse{}, err
	}
	typ, body, err := wire.ReadFrameInto(rc.br, &rc.in)
	if err != nil {
		return wire.QResponse{}, err
	}
	if typ != wire.TypeQResponse {
		return wire.QResponse{}, fmt.Errorf("client: unexpected frame type %c", typ)
	}
	resp, err := wire.ParseQResponse(body)
	if err == nil && resp.OpID != req.OpID {
		// A failed round trip closes its connection, so no answer to an
		// earlier request can be in flight.
		err = fmt.Errorf("client: answer to op %d, want %d", resp.OpID, req.OpID)
	}
	return resp, err
}

func (rc *replicaConn) close() {
	if rc.nc != nil {
		rc.nc.Close()
	}
}

// tagLess orders register tags: (ts, writer) lexicographically.
func tagLess(ts1 uint64, w1 uint32, ts2 uint64, w2 uint32) bool {
	return ts1 < ts2 || (ts1 == ts2 && w1 < w2)
}
