// Package sim provides BTR's executive seam: a Scheduler interface over
// virtual or wall-clock time, a deterministic discrete-event Kernel
// implementing it, and a real-time WallScheduler for live deployments.
//
// Every substrate above this package (network, node runtimes, plants,
// adversaries) is written against Scheduler only, so the same runtime code
// executes in two modes:
//
//   - Simulation: Kernel advances a virtual clock from event to event.
//     Determinism is guaranteed by (a) a total order on events — primary
//     key virtual time, tie-break by insertion sequence number — and (b) a
//     seeded PRNG (see RNG) instead of any ambient source of randomness.
//   - Live: WallScheduler dispatches the same callbacks at real wall-clock
//     deadlines on a single executor goroutine (see wall.go), which is how
//     cmd/btrlive measures recovery in wall time rather than virtual time.
//
// Time is measured in microseconds (type Time) in both modes. One
// microsecond granularity is fine enough for the CAN-bus / avionics-style
// networks the paper targets and coarse enough to avoid overflow: int64
// microseconds cover ~292k years.
package sim

import "fmt"

// Time is a point in virtual (or live-run wall) time, in microseconds
// since execution start. It doubles as a duration; helper constructors
// Millisecond etc. make call sites readable.
type Time int64

// Convenient units for constructing Time values.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
)

// Never is a sentinel meaning "no deadline / unreachable time".
const Never Time = 1<<63 - 1

// String renders a Time using the largest unit that keeps it readable.
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t < 0:
		return fmt.Sprintf("-%s", (-t).String())
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%dus", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts floating-point seconds to Time, rounding to the
// nearest microsecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// Event is a typed scheduled callback. Hot paths schedule a pointer to a
// struct that already exists (a message in flight, one node-period's
// slot) instead of building a closure per event: a pointer fits in an
// interface word, so scheduling it allocates nothing.
type Event interface{ Fire() }

// Func adapts a plain callback to Event. A func value is one pointer
// word, so the conversion allocates nothing beyond the closure itself.
type Func func()

// Fire runs the callback.
func (f Func) Fire() { f() }

// Scheduler is the executive seam between BTR's runtime layers and
// whatever drives them. The discrete-event Kernel implements it on virtual
// time; WallScheduler implements it on the wall clock. Code written
// against Scheduler (the network transports, the node runtime, the plants)
// runs unchanged in both modes.
//
// Contract shared by all implementations:
//
//   - Callbacks are dispatched one at a time in (time, insertion) order;
//     no two callbacks ever run concurrently, so runtime state needs no
//     locking.
//   - At, After and AtEvent share one queue and one insertion sequence:
//     At(t, fn) is AtEvent(t, Func(fn)), so closures and typed events
//     scheduled for the same instant fire in the order they were
//     scheduled, whichever method scheduled them.
//   - At/After/AtEvent return a Handle; Cancel(h) prevents the callback
//     from running if it has not fired yet and reports whether it did so.
//     Cancelling an already-fired or already-cancelled event returns
//     false.
//   - The scheduler keeps a reference to an Event only until it fires or
//     is cancelled. The same Event value may be scheduled again after
//     that, or be pending several times at once; each scheduling fires
//     Fire once.
//   - RNG returns the executive's deterministic random source. It is not
//     synchronized: use it only from event callbacks (or before the
//     executive starts dispatching).
type Scheduler interface {
	// Now returns the current time.
	Now() Time
	// At schedules fn at absolute time t.
	At(t Time, fn func()) Handle
	// AtEvent schedules ev.Fire at absolute time t.
	AtEvent(t Time, ev Event) Handle
	// After schedules fn d after the current time. Negative d panics.
	After(d Time, fn func()) Handle
	// Cancel revokes a scheduled event; see the interface contract.
	Cancel(h Handle) bool
	// RNG returns the executive's deterministic random source.
	RNG() *RNG
}

// Kernel is the discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
//
// The hot path is allocation-free at steady state: events are typed
// records in a pooled 4-ary index heap (see eventQueue), and same-
// timestamp runs dispatch as one batch — a single clock advance and heap
// drain per distinct instant instead of a full pop cycle per event.
type Kernel struct {
	now     Time
	q       eventQueue
	rng     *RNG
	stopped bool

	// batch is the reusable same-timestamp dispatch buffer. It is
	// detached while in use so a callback that re-enters Run/RunAll
	// (unusual but legal) gets a fresh buffer instead of clobbering the
	// in-flight one.
	batch []batchEvent

	// Executed counts events dispatched so far (for diagnostics and as a
	// runaway guard in tests).
	Executed uint64
}

// batchEvent is one popped event awaiting dispatch in the current batch.
type batchEvent struct {
	seq uint64
	ev  Event
}

// Kernel implements Scheduler.
var _ Scheduler = (*Kernel)(nil)

// NewKernel returns a kernel whose clock reads zero and whose PRNG is
// seeded with seed. Two kernels constructed with the same seed and fed the
// same schedule of events produce byte-identical behavior.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// RNG returns the kernel's deterministic random source.
func (k *Kernel) RNG() *RNG { return k.rng }

// At schedules fn to run at absolute virtual time t; it is
// AtEvent(t, Func(fn)).
func (k *Kernel) At(t Time, fn func()) Handle { return k.AtEvent(t, Func(fn)) }

// AtEvent schedules ev to fire at absolute virtual time t. Scheduling in
// the past (t < Now) panics: it indicates a logic bug, and silently
// clamping would hide causality violations.
func (k *Kernel) AtEvent(t Time, ev Event) Handle {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	return k.q.schedule(t, ev)
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return k.At(k.now+d, fn)
}

// Cancel revokes a scheduled event. It reports false when the handle is
// zero, stale, or the event already fired or was cancelled.
func (k *Kernel) Cancel(h Handle) bool { return k.q.cancel(h) }

// Step dispatches the single earliest pending event. It reports false when
// no events remain or Stop has been called.
func (k *Kernel) Step() bool {
	if k.stopped || k.q.len() == 0 {
		return false
	}
	at, _, ev := k.q.pop()
	k.now = at
	k.Executed++
	ev.Fire()
	return true
}

// dispatchBatch advances the clock to t and runs every event scheduled at
// exactly t in insertion order, popping them all before running any — one
// heap drain per instant. Events a callback schedules at the same t land
// back in the heap and are picked up by the caller's next batch (their
// sequence numbers are larger, so insertion order is preserved). If a
// callback calls Stop mid-batch, the unexecuted remainder is requeued with
// its original sequence numbers, matching the one-event-at-a-time
// semantics (stopped events stay pending).
func (k *Kernel) dispatchBatch(t Time) uint64 {
	k.now = t
	_, seq0, ev := k.q.pop()
	if k.q.len() == 0 || k.q.topAt() != t {
		// Fast path: the instant holds a single event.
		k.Executed++
		ev.Fire()
		return 1
	}
	batch := k.batch[:0]
	k.batch = nil
	batch = append(batch, batchEvent{seq0, ev})
	for k.q.len() > 0 && k.q.topAt() == t {
		_, seq, ev := k.q.pop()
		batch = append(batch, batchEvent{seq, ev})
	}
	var n uint64
	for i := range batch {
		if k.stopped {
			for _, rest := range batch[i:] {
				k.q.scheduleSeq(t, rest.seq, rest.ev)
			}
			break
		}
		ev := batch[i].ev
		batch[i].ev = nil // release the event before running it
		k.Executed++
		n++
		ev.Fire()
	}
	k.batch = batch[:0]
	return n
}

// Run dispatches events until the queue is empty, Stop is called, or the
// next event lies strictly after until. The clock is left at the time of
// the last dispatched event (or until, if that is later and events remain).
// It returns the number of events dispatched by this call.
func (k *Kernel) Run(until Time) uint64 {
	var n uint64
	for !k.stopped && k.q.len() > 0 {
		t := k.q.topAt()
		if t > until {
			break
		}
		n += k.dispatchBatch(t)
	}
	if k.now < until && !k.stopped {
		k.now = until
	}
	return n
}

// RunAll dispatches events until none remain or Stop is called.
func (k *Kernel) RunAll() uint64 {
	var n uint64
	for !k.stopped && k.q.len() > 0 {
		n += k.dispatchBatch(k.q.topAt())
	}
	return n
}

// Stop halts the simulation: subsequent Step/Run calls do nothing. Safe to
// call from inside an event callback; events not yet dispatched (including
// later events of the current same-timestamp batch) stay pending.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// Pending returns the number of events waiting in the queue.
func (k *Kernel) Pending() int { return k.q.len() }

// NextEventTime returns the time of the earliest pending event, or Never if
// the queue is empty.
func (k *Kernel) NextEventTime() Time {
	if k.q.len() == 0 {
		return Never
	}
	return k.q.topAt()
}
