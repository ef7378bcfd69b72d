package sim

// Handle identifies a scheduled event for cancellation. The zero Handle is
// invalid (Cancel returns false for it), so callers can keep a Handle field
// around without an extra "armed" flag. Handles are single-use: once the
// event fires or is cancelled, the handle goes stale and a later Cancel
// returns false — slot reuse is guarded by a generation counter, so a stale
// handle can never cancel an unrelated newer event.
type Handle uint64

// eventRec is the pooled per-event record: the event plus the
// bookkeeping cancellation needs. Records are recycled through a free
// list; ev is nilled out the moment the event fires or is cancelled, so
// finished events never pin what they reference (the old closure-heap
// kernel kept dead watchdog closures alive until their timestamp
// drained).
type eventRec struct {
	ev  Event
	pos int32  // index in heap; -1 when not queued
	gen uint32 // handle generation (guards slot reuse)
}

// heapEntry is one heap element. The ordering key (at, seq) lives inline so
// sift comparisons never chase a pool pointer — with the 4-ary layout a
// child scan reads one or two cache lines of contiguous entries instead of
// four scattered heap objects (the old kernel's []*event paid a cache miss
// per comparison once the pending set outgrew L1).
type heapEntry struct {
	at  Time
	seq uint64 // insertion order; total-order tie-break
	idx int32  // pool index of the record
}

// eventQueue is a pooled 4-ary index min-heap over (at, seq). It is the
// shared engine under both the discrete-event Kernel and the wall-clock
// WallScheduler: each pooled record tracks its heap position, so Cancel
// removes the event eagerly in O(log n) — the queue never accumulates dead
// entries, keeping the watchdog arm/cancel pattern cheap — and freed slots
// recycle through a free list so steady-state scheduling allocates
// nothing.
type eventQueue struct {
	pool []eventRec
	free []int32
	heap []heapEntry
	seq  uint64
}

func makeHandle(idx int32, gen uint32) Handle {
	return Handle(uint64(uint32(idx+1)) | uint64(gen)<<32)
}

func (q *eventQueue) len() int { return len(q.heap) }

// topAt returns the earliest pending time; call only when len() > 0.
func (q *eventQueue) topAt() Time { return q.heap[0].at }

// schedule inserts ev at time at with a fresh sequence number.
func (q *eventQueue) schedule(at Time, ev Event) Handle {
	q.seq++
	return q.scheduleSeq(at, q.seq, ev)
}

// scheduleSeq inserts with an explicit sequence number (used to requeue
// events popped into a dispatch batch that Stop interrupted, preserving
// their original tie-break order).
func (q *eventQueue) scheduleSeq(at Time, seq uint64, ev Event) Handle {
	var idx int32
	if n := len(q.free); n > 0 {
		idx = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.pool = append(q.pool, eventRec{})
		idx = int32(len(q.pool) - 1)
	}
	rec := &q.pool[idx]
	rec.ev = ev
	q.heap = append(q.heap, heapEntry{at: at, seq: seq, idx: idx})
	q.siftUp(len(q.heap) - 1)
	return makeHandle(idx, rec.gen)
}

// cancel removes the event named by h. It reports false when h is zero,
// stale, or already fired — cancellation after the fact is a no-op, not an
// error.
func (q *eventQueue) cancel(h Handle) bool {
	lo := uint32(h)
	if lo == 0 {
		return false
	}
	idx := int32(lo - 1)
	if int(idx) >= len(q.pool) {
		return false
	}
	rec := &q.pool[idx]
	if rec.gen != uint32(h>>32) || rec.pos < 0 {
		return false
	}
	pos := int(rec.pos)
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if pos != last {
		q.heap[pos] = moved
		q.pool[moved.idx].pos = int32(pos)
		q.siftDown(pos)
		if q.heap[pos].idx == moved.idx {
			q.siftUp(pos)
		}
	}
	q.release(idx)
	return true
}

// pop removes and returns the earliest event; call only when len() > 0.
func (q *eventQueue) pop() (at Time, seq uint64, ev Event) {
	e := q.heap[0]
	at, seq, ev = e.at, e.seq, q.pool[e.idx].ev
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.heap[0] = moved
		q.pool[moved.idx].pos = 0
		q.siftDown(0)
	}
	q.release(e.idx)
	return at, seq, ev
}

// release recycles a fired/cancelled record, dropping its event and
// bumping the generation so outstanding handles go stale.
func (q *eventQueue) release(idx int32) {
	rec := &q.pool[idx]
	rec.ev = nil
	rec.pos = -1
	rec.gen++
	q.free = append(q.free, idx)
}

func less(a, b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) siftUp(pos int) {
	e := q.heap[pos]
	for pos > 0 {
		parent := (pos - 1) >> 2
		p := q.heap[parent]
		if !less(&e, &p) {
			break
		}
		q.heap[pos] = p
		q.pool[p.idx].pos = int32(pos)
		pos = parent
	}
	q.heap[pos] = e
	q.pool[e.idx].pos = int32(pos)
}

func (q *eventQueue) siftDown(pos int) {
	e := q.heap[pos]
	n := len(q.heap)
	for {
		first := pos<<2 + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(&q.heap[c], &q.heap[best]) {
				best = c
			}
		}
		if !less(&q.heap[best], &e) {
			break
		}
		q.heap[pos] = q.heap[best]
		q.pool[q.heap[pos].idx].pos = int32(pos)
		pos = best
	}
	q.heap[pos] = e
	q.pool[e.idx].pos = int32(pos)
}
