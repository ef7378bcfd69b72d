package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"btr/internal/client"
	"btr/internal/sim"
)

// The register cluster both client workloads drive: n = 4 replicas on
// loopback, f = 1, quorum 3; 1024 preloaded keys; 64-byte values.
const (
	replicas   = 4
	clientF    = 1
	keyCount   = 1024
	valueBytes = 64
	valueMagic = 0xb7c0ffee
	// valueRing is how many value buffers a session cycles through. A
	// broadcast's laggard goroutine may still be encoding a write after
	// Write returned, so a buffer is reused only 65536 writes later, far
	// beyond the client's 2 s I/O timeout.
	valueRing = 1 << 16
)

// cluster is four in-process client.Server replicas and their stores.
type cluster struct {
	servers [replicas]*client.Server
	stores  [replicas]*client.RegisterStore
	views   [replicas]*client.ViewState
	addrs   map[uint32]string
}

func (h *harness) startCluster(parent int) (*cluster, error) {
	c := &cluster{addrs: map[uint32]string{}}
	members := make([]uint32, replicas)
	for i := range members {
		members[i] = uint32(i)
	}
	for i := 0; i < replicas; i++ {
		c.stores[i] = client.NewRegisterStore()
		c.views[i] = client.NewViewState(0, members)
		sp := h.rec.begin("client.NewServer", parent, i)
		s, err := client.NewServer("", c.stores[i], c.views[i])
		h.rec.end(sp)
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers[i] = s
		c.addrs[uint32(i)] = s.Addr()
	}
	return c, nil
}

func (c *cluster) close() {
	for _, s := range c.servers {
		if s != nil {
			s.Close()
		}
	}
}

func (c *cluster) view() client.View {
	return client.View{Epoch: 0, F: clientF, Addrs: c.addrs}
}

// session is one client with everything its ops need preallocated: the
// op schedule, the value buffers, the latency samples.
type session struct {
	id     uint32 // writer id, 1-based (0 preloads)
	cl     *client.Client
	keys   []string
	ops    []op
	values []byte   // valueRing buffers of valueBytes
	wrote  []uint64 // last completed write sequence of this session, per key
	seq    uint64

	lat      []sample
	failures int64
	firstErr string
}

type op struct {
	key   uint16
	write bool
}

// sample is one completed op: how long it took, and in the open loop
// when it was due (the latency counts from then) and how late it was
// sent.
type sample struct {
	atNs   int64 // due time, since the phase started
	latNs  int64
	lateNs int64
	write  bool
}

// fillValue writes the session's next value for key into its ring slot:
// magic, writer, sequence, key index, then a filler derived from those,
// so a torn or foreign value cannot pass for a written one.
func (s *session) fillValue(key uint16) []byte {
	s.seq++
	slot := int(s.seq%valueRing) * valueBytes
	v := s.values[slot : slot+valueBytes]
	encodeValue(v, s.id, s.seq, key)
	return v
}

func encodeValue(v []byte, writer uint32, seq uint64, key uint16) {
	binary.LittleEndian.PutUint32(v[0:], valueMagic)
	binary.LittleEndian.PutUint32(v[4:], writer)
	binary.LittleEndian.PutUint64(v[8:], seq)
	binary.LittleEndian.PutUint64(v[16:], uint64(key))
	x := uint64(writer)<<48 ^ seq<<16 ^ uint64(key)
	for off := 24; off < valueBytes; off += 8 {
		x = splitmix(x, off)
		binary.LittleEndian.PutUint64(v[off:], x)
	}
}

// checkValue verifies a value read for key: well formed, written by a
// known writer for this key, and never older than this session's own
// last completed write when it is this session's.
func (s *session) checkValue(key uint16, v []byte, writers uint32) error {
	if len(v) != valueBytes || binary.LittleEndian.Uint32(v) != valueMagic {
		return fmt.Errorf("read of key %d returned a malformed value (%d bytes)", key, len(v))
	}
	writer := binary.LittleEndian.Uint32(v[4:])
	seq := binary.LittleEndian.Uint64(v[8:])
	var want [valueBytes]byte
	encodeValue(want[:], writer, seq, key)
	if writer > writers || string(v) != string(want[:]) {
		return fmt.Errorf("read of key %d returned a value nobody wrote (writer %d, seq %d)", key, writer, seq)
	}
	if writer == s.id && seq < s.wrote[key] {
		return fmt.Errorf("read of key %d returned this session's write %d, older than its completed write %d", key, seq, s.wrote[key])
	}
	return nil
}

// do performs op i and verifies its output.
func (s *session) do(h *harness, o op, i int, writers uint32) error {
	if o.write {
		v := s.fillValue(o.key)
		sp := h.rec.begin("Client.Write", -1, i)
		err := s.cl.Write(s.keys[o.key], v)
		h.rec.end(sp)
		if err == nil {
			s.wrote[o.key] = s.seq
		}
		return err
	}
	sp := h.rec.begin("Client.Read", -1, i)
	v, err := s.cl.Read(s.keys[o.key])
	h.rec.end(sp)
	if err != nil {
		return err
	}
	return s.checkValue(o.key, v, writers)
}

func (s *session) fail(err error) {
	s.failures++
	if s.firstErr == "" {
		s.firstErr = err.Error()
	}
}

// clientEnv is a running cluster with preloaded keys and the sessions
// that will drive it.
type clientEnv struct {
	c        *cluster
	sessions []*session
}

func (e *clientEnv) close() {
	for _, s := range e.sessions {
		s.cl.Close()
	}
	e.c.close()
}

// newSessions builds the harness side of the sessions once: the seeded
// op schedule, the value buffers and room for the latency samples, so
// that nothing is allocated per op and set-up times the program alone.
func (h *harness) newSessions(n, opsPerSession, samples int, writeFrac float64) []*session {
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%04d-%08x", i, uint32(splitmix(h.seed, i)))
	}
	rng := sim.NewRNG(splitmix(h.seed, keyCount))
	sessions := make([]*session, n)
	for i := range sessions {
		s := &session{
			id: uint32(i + 1), keys: keys,
			ops:    make([]op, opsPerSession),
			values: make([]byte, valueRing*valueBytes),
			wrote:  make([]uint64, len(keys)),
			lat:    make([]sample, 0, samples),
		}
		for j := range s.ops {
			s.ops[j] = op{key: uint16(rng.Intn(len(keys))), write: rng.Float64() < writeFrac}
		}
		sessions[i] = s
	}
	return sessions
}

// setupClients is one set-up phase: start the servers, build one client
// per session, and preload every key (as writer 0), a slice of the key
// space per session so that every connection has carried an op.
func (h *harness) setupClients(sessions []*session, parent int) (*clientEnv, error) {
	c, err := h.startCluster(parent)
	if err != nil {
		return nil, err
	}
	env := &clientEnv{c: c}
	for i, s := range sessions {
		sp := h.rec.begin("client.New", parent, i)
		s.cl, err = client.New(client.Config{View: c.view(), Writer: s.id})
		h.rec.end(sp)
		if err != nil {
			env.close()
			return nil, err
		}
		env.sessions = append(env.sessions, s)
	}
	// One buffer per key: a broadcast's laggard may still be encoding the
	// previous value when the next preload write begins.
	pre := make([]byte, keyCount*valueBytes)
	for k, key := range sessions[0].keys {
		v := pre[k*valueBytes : (k+1)*valueBytes]
		encodeValue(v, 0, 1, uint16(k))
		if err := sessions[k%len(sessions)].cl.Write(key, v); err != nil {
			env.close()
			return nil, fmt.Errorf("preload of key %d: %w", k, err)
		}
	}
	return env, nil
}

// timedSetup is one set-up repeat whose cluster the caller keeps.
func (h *harness) timedSetup(sessions []*session) (env *clientEnv, err error) {
	h.timeSetup(func(sp int) { env, err = h.setupClients(sessions, sp) })
	return env, err
}

// spareSetups runs up to n more set-up repeats, each on a cluster and
// clients of its own that are torn down at once, while the workload's
// own cluster stands idle.
func (h *harness) spareSetups(sessions []*session, n int) {
	for i := 0; i < n && h.moreSetup(); i++ {
		spare := make([]*session, len(sessions))
		for j, s := range sessions {
			c := *s // setupClients sets only cl
			spare[j] = &c
		}
		env, err := h.timedSetup(spare)
		if err != nil {
			h.failf("%s: set-up repeat: %v", h.workload, err)
			return
		}
		env.close()
	}
}

// msOf maps the samples that pass keep (nil: all of them) through ns and
// returns the values in milliseconds.
func msOf(samples []sample, keep func(sample) bool, ns func(sample) int64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if keep == nil || keep(s) {
			out = append(out, float64(ns(s))/1e6)
		}
	}
	return out
}

func latency(s sample) int64 { return s.latNs }

// clientCounts adds the sessions' retry and repair counters and the cost
// ledgers shared by both client workloads.
func (h *harness) clientCounts(env *clientEnv) {
	var retries, repairs float64
	for _, s := range env.sessions {
		st := s.cl.Stats()
		retries += float64(st.Retries)
		repairs += float64(st.Repairs)
		if s.failures > 0 {
			h.failf("session %d: %d ops failed, first: %s", s.id, s.failures, s.firstErr)
		}
	}
	t := h.totals()
	ops := float64(max(t.ops, 1))
	h.layer["client.retries_per_kop"] = retries * 1e3 / ops
	h.layer["client.repairs_per_kop"] = repairs * 1e3 / ops
	h.layer["client.ctxsw_per_op"] = float64(t.ctxsw) / ops
	h.layer["client.alloc_bytes_per_op"] = float64(t.bytes) / ops
}

// clientClosed is the closed-loop workload: 2 sessions, each issuing its
// next op when the last completes, 50 % writes. The quorum engine, the
// Q-frame codec and loopback sockets do all the work: serving capacity.
// No delay is injected, so latency is processor and kernel time only.
func clientClosed(h *harness) {
	const nSessions = 2
	segments := 10
	if h.short {
		segments = 1
	}
	segDur := h.dur() / time.Duration(segments)
	// 40 k ops/s per session is several times what loopback sustains.
	perSegment := int(segDur.Seconds()*40_000) + 1024
	sessions := h.newSessions(nSessions, perSegment*segments, perSegment, 0.5)
	env, err := h.timedSetup(sessions)
	if err != nil {
		h.failf("client_closed: set-up: %v", err)
		return
	}
	defer env.close()

	next := make([]int, nSessions) // each session's position in its schedule
	var all []sample
	for seg := 0; seg < segments; seg++ {
		h.spareSetups(sessions, 2)
		c0 := h.begin()
		var wg sync.WaitGroup
		for si, s := range env.sessions {
			wg.Add(1)
			go func(si int, s *session) {
				defer wg.Done()
				s.lat = s.lat[:0]
				i := next[si]
				for time.Since(c0.wall) < segDur && len(s.lat) < cap(s.lat) && i < len(s.ops) {
					o := s.ops[i]
					t0 := time.Now()
					if err := s.do(h, o, i, nSessions); err != nil {
						s.fail(err)
					} else {
						s.lat = append(s.lat, sample{latNs: int64(time.Since(t0)), write: o.write})
					}
					i++
				}
				next[si] = i
			}(si, s)
		}
		wg.Wait()
		sg := h.end(c0)
		var segLat []sample
		var failed int64
		for _, s := range env.sessions {
			segLat = append(segLat, s.lat...)
			failed += s.failures
		}
		sg.ops = int64(len(segLat))
		sg.failed = failed - h.totals().failed
		sg.latMs = median(msOf(segLat, nil, latency))
		all = append(all, segLat...)
	}
	h.clientCounts(env)
	h.layer["client.read_p50_ms"] = median(msOf(all, func(s sample) bool { return !s.write }, latency))
	h.layer["client.write_p50_ms"] = median(msOf(all, func(s sample) bool { return s.write }, latency))
	h.layer["client.closed_p99_ms"] = quantile(msOf(all, nil, latency), 0.99)
}

// clientOpenKill is the open-loop workload: 1000 ops/s on a fixed
// schedule across 2 sessions, 10 % writes; replica 3 is closed a third
// of the way in and restarted with an empty store two thirds in. Latency
// counts from the due time, so requests due during the fault pay for it.
func clientOpenKill(h *harness) {
	const (
		nSessions = 2
		rate      = 1000 // ops/s over both sessions
		victim    = replicas - 1
	)
	window := time.Second
	if h.short {
		window = 100 * time.Millisecond
	}
	windows := max(int(h.dur()/window), 3)
	total := time.Duration(windows) * window
	killAt, restartAt := total/3, 2*total/3
	gap := time.Second * nSessions / rate // between one session's ops
	opsPerSession := int(total / gap)
	sessions := h.newSessions(nSessions, opsPerSession, opsPerSession, 0.1)
	env, err := h.timedSetup(sessions)
	if err != nil {
		h.failf("client_open_kill: set-up: %v", err)
		return
	}
	defer env.close()
	// The open loop never pauses, so the other set-up repeats run before
	// it starts and after it ends.
	h.spareSetups(sessions, 7)
	defer h.spareSetups(sessions, 8)

	c0 := h.begin()
	cuts := make([]counters, 1, windows+1)
	cuts[0] = c0
	var wg sync.WaitGroup
	for si, s := range env.sessions {
		wg.Add(1)
		go func(si int, s *session) {
			defer wg.Done()
			// Session si's op i is due at (i·nSessions + si) / rate.
			offset := time.Duration(si) * gap / nSessions
			for i, o := range s.ops {
				due := offset + time.Duration(i)*gap
				if wait := due - time.Since(c0.wall); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(c0.wall)
				if err := s.do(h, o, i, nSessions); err != nil {
					s.fail(err)
					continue
				}
				s.lat = append(s.lat, sample{atNs: int64(due), latNs: int64(time.Since(c0.wall) - due), lateNs: int64(sent - due), write: o.write})
			}
		}(si, s)
	}
	// The fault schedule and the window cuts run on this goroutine; the
	// sessions never wait for either.
	type event struct {
		at time.Duration
		do func()
	}
	events := []event{
		{killAt, func() { env.c.servers[victim].Close() }},
		{restartAt, func() {
			env.c.stores[victim] = client.NewRegisterStore()
			sp := h.rec.begin("client.NewServer", -1, victim)
			srv, err := client.NewServer(env.c.addrs[victim], env.c.stores[victim], env.c.views[victim])
			h.rec.end(sp)
			if err != nil {
				h.failf("client_open_kill: restart of replica %d: %v", victim, err)
				return
			}
			env.c.servers[victim] = srv
		}},
	}
	for w := 1; w <= windows; w++ {
		events = append(events, event{time.Duration(w) * window, func() { cuts = append(cuts, readCounters()) }})
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].at < events[j].at })
	for _, ev := range events {
		time.Sleep(ev.at - time.Since(c0.wall))
		ev.do()
	}
	wg.Wait()

	// Ops are charged to the window they were due in.
	var all []sample
	var failed int64
	for _, s := range env.sessions {
		all = append(all, s.lat...)
		failed += s.failures
	}
	byWindow := make([][]float64, windows)
	for _, s := range all {
		w := min(int(time.Duration(s.atNs)/window), windows-1)
		byWindow[w] = append(byWindow[w], float64(s.latNs)/1e6)
	}
	for w := 0; w < windows; w++ {
		sg := h.cut(cuts[w], cuts[w+1])
		sg.ops = int64(len(byWindow[w]))
		sg.latMs = median(byWindow[w])
	}
	h.segs[len(h.segs)-1].failed = failed

	h.clientCounts(env)
	phase := func(lo, hi time.Duration) func(sample) bool {
		return func(s sample) bool { return time.Duration(s.atNs) >= lo && time.Duration(s.atNs) < hi }
	}
	// Longest stretch of the schedule with no successful completion.
	ends := msOf(all, nil, func(s sample) int64 { return s.atNs + s.latNs })
	sort.Float64s(ends)
	var lastEnd, maxGap float64
	for _, e := range ends {
		maxGap = max(maxGap, e-lastEnd)
		lastEnd = e
	}
	h.layer["client.open_p99_ms"] = quantile(msOf(all, nil, latency), 0.99)
	h.layer["client.open_late_p50_ms"] = median(msOf(all, nil, func(s sample) int64 { return s.lateNs }))
	h.layer["client.open_service_p50_ms"] = median(msOf(all, nil, func(s sample) int64 { return s.latNs - s.lateNs }))
	h.layer["client.open_pre_p50_ms"] = median(msOf(all, phase(0, killAt), latency))
	h.layer["client.open_fault_p50_ms"] = median(msOf(all, phase(killAt, restartAt), latency))
	h.layer["client.open_post_p50_ms"] = median(msOf(all, phase(restartAt, total), latency))
	h.layer["client.max_unavail_ms"] = maxGap
}
