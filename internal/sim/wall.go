package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// wallSpinSlack is the window before an event's deadline in which the
// executor yield-spins instead of arming an OS timer (whose ~1ms
// overshoot on non-realtime kernels would otherwise become per-event
// dispatch jitter). Timers are still used for longer waits, so an idle
// executive does not burn CPU.
const wallSpinSlack = 2 * Millisecond

// wallCatchUpLag is how far behind the wall clock the executor must fall
// before it starts yielding between dispatches (see the catch-up fairness
// note in loop). On-time operation never pays it.
const wallCatchUpLag = 2 * Millisecond

// WallScheduler implements Scheduler on the wall clock: the same runtime
// code that simulates under Kernel executes live, with sim.Time measured
// as real microseconds since Start. It is the executive behind
// internal/live deployments and cmd/btrlive.
//
// Concurrency model: a single executor goroutine (started by Start) owns
// all callback dispatch — callbacks never run concurrently, preserving
// the no-locking discipline runtime code relies on under Kernel. At,
// After, Cancel, and Now are safe to call from any goroutine (transports
// hand deliveries back to the executor this way); RNG is not synchronized
// and must be used only from callbacks, matching the Scheduler contract.
//
// Two deliberate departures from Kernel semantics, both inherent to real
// time: scheduling at a time already in the past clamps to "run next"
// instead of panicking (wall-clock races make slightly-past deadlines
// inevitable), and Now advances continuously rather than from event to
// event. Dispatch order remains (time, insertion order): an event
// scheduled at T runs before one at T' > T even when the executor is
// running behind the wall clock.
type WallScheduler struct {
	mu      sync.Mutex
	q       eventQueue
	rng     *RNG
	start   time.Time
	started bool
	stopped bool

	// cursor is the scheduled time of the most recently dispatched event
	// (max-monotonic); dispatching marks a callback in flight. Together
	// they give callbacks kernel-style logical time — see Now.
	cursor      Time
	dispatching bool

	wake chan struct{} // signals the executor that the head changed
	quit chan struct{} // closed by Stop
	done chan struct{} // closed when the executor exits

	stopOnce sync.Once

	// Executed counts dispatched events (read it after Close for
	// diagnostics; it is not synchronized for concurrent readers).
	Executed uint64
}

// WallScheduler implements Scheduler.
var _ Scheduler = (*WallScheduler)(nil)

// NewWallScheduler returns a wall-clock executive whose PRNG is seeded
// with seed. Call Start to begin dispatching.
func NewWallScheduler(seed uint64) *WallScheduler {
	return &WallScheduler{
		rng:  NewRNG(seed),
		wake: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start pins t=0 to the current wall clock and launches the executor
// goroutine. Events scheduled before Start run as soon as it is called.
// Starting twice panics.
func (w *WallScheduler) Start() { w.StartAt(0) }

// StartAt pins logical time t=origin (not 0) to the current wall clock
// and launches the executor. A process joining a deployment already in
// flight uses it — e.g. a restarted node whose cluster is at period N:
// starting at origin = N·period makes all period arithmetic, watchdog
// deadlines, and evidence timestamps agree with the running peers
// without replaying the missed interval. Events scheduled before origin
// clamp to "run next", like any past time. Negative origin panics;
// starting twice panics.
func (w *WallScheduler) StartAt(origin Time) {
	if origin < 0 {
		panic(fmt.Sprintf("sim: negative start origin %v", origin))
	}
	w.mu.Lock()
	if w.started {
		w.mu.Unlock()
		panic("sim: WallScheduler started twice")
	}
	w.started = true
	// Back-dating start by origin makes nowLocked (and therefore Now,
	// WallElapsed, and every deadline comparison) read origin at this
	// instant with no further arithmetic anywhere.
	w.start = time.Now().Add(-time.Duration(origin) * time.Microsecond)
	if origin > w.cursor {
		w.cursor = origin
	}
	w.mu.Unlock()
	go w.loop()
}

// Now returns the executive's logical clock. Inside an event callback it
// is the callback's scheduled time — the same semantics as the
// discrete-event kernel — so timing computed from Now (message send
// stamps, period arithmetic, evidence timestamps) stays on the modeled
// timeline even when the executor momentarily lags the wall clock and is
// catching up in causal order. Outside callbacks it is the elapsed wall
// time since Start (never rewinding behind the cursor; zero before
// Start). An event never dispatches before the wall clock reaches its
// scheduled time, so when the executor is keeping up the two views
// coincide to within dispatch jitter.
func (w *WallScheduler) Now() Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dispatching {
		return w.cursor
	}
	now := w.nowLocked()
	if now < w.cursor {
		return w.cursor
	}
	return now
}

// WallElapsed returns the raw elapsed wall time since Start (zero
// before Start), regardless of any in-flight dispatch: what a caller
// measuring real elapsed time (not the modeled time of Now) reads.
func (w *WallScheduler) WallElapsed() Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nowLocked()
}

func (w *WallScheduler) nowLocked() Time {
	if !w.started {
		return 0
	}
	return Time(time.Since(w.start) / time.Microsecond)
}

// RNG returns the deterministic random source. Per the Scheduler
// contract, use it only from event callbacks (or before Start).
func (w *WallScheduler) RNG() *RNG { return w.rng }

// At schedules fn at absolute time t; it is AtEvent(t, Func(fn)).
func (w *WallScheduler) At(t Time, fn func()) Handle { return w.AtEvent(t, Func(fn)) }

// AtEvent schedules ev at absolute time t (microseconds since Start).
// Times in the past clamp to "run as soon as possible". After Stop,
// scheduling is accepted but the event never runs.
func (w *WallScheduler) AtEvent(t Time, ev Event) Handle {
	w.mu.Lock()
	wasHead := w.q.len() == 0 || t < w.q.topAt()
	h := w.q.schedule(t, ev)
	w.mu.Unlock()
	if wasHead {
		w.signal()
	}
	return h
}

// signal tells the executor the queue head changed.
func (w *WallScheduler) signal() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// After schedules fn d after the current time (logical time inside a
// callback, wall time outside — see Now). Negative d panics.
func (w *WallScheduler) After(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	w.mu.Lock()
	base := w.nowLocked()
	if w.dispatching || base < w.cursor {
		base = w.cursor
	}
	t := base + d
	wasHead := w.q.len() == 0 || t < w.q.topAt()
	h := w.q.schedule(t, Func(fn))
	w.mu.Unlock()
	if wasHead {
		w.signal()
	}
	return h
}

// Cancel revokes a scheduled event; it reports false for zero, stale, or
// already-fired handles.
func (w *WallScheduler) Cancel(h Handle) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.q.cancel(h)
}

// Pending returns the number of scheduled events not yet dispatched.
func (w *WallScheduler) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.q.len()
}

// loop is the executor: it sleeps until the head event is due, then
// dispatches every due event in (time, insertion) order.
func (w *WallScheduler) loop() {
	defer close(w.done)
	for {
		w.mu.Lock()
		w.dispatching = false
		if w.stopped {
			w.mu.Unlock()
			return
		}
		if w.q.len() == 0 {
			w.mu.Unlock()
			select {
			case <-w.wake:
				continue
			case <-w.quit:
				return
			}
		}
		next := w.q.topAt()
		now := w.nowLocked()
		if next > now {
			w.mu.Unlock()
			if next-now <= wallSpinSlack {
				// Nearly due: OS timers on non-realtime kernels
				// overshoot by ~1ms, which would add a full
				// millisecond of dispatch jitter to every event.
				// Yield-spin through the last stretch instead.
				runtime.Gosched()
				continue
			}
			timer := time.NewTimer(time.Duration(next-now-wallSpinSlack) * time.Microsecond)
			select {
			case <-timer.C:
			case <-w.wake: // an earlier event arrived; recompute
				timer.Stop()
			case <-w.quit:
				timer.Stop()
				return
			}
			continue
		}
		if now-next > wallCatchUpLag {
			// Catching up: the executor is running overdue events
			// back-to-back and would otherwise never block, starving the
			// goroutines whose pending handoffs belong *before* the next
			// overdue event. Only TCPBus socket readers hand events in
			// from other goroutines; an in-process Network schedules on
			// this goroutine. Yield once per dispatch so their schedules
			// land in the heap and causal order repairs itself; when
			// running on time this branch never triggers.
			w.mu.Unlock()
			runtime.Gosched()
			w.mu.Lock()
			if w.stopped || w.q.len() == 0 {
				w.mu.Unlock()
				continue
			}
		}
		at, _, ev := w.q.pop()
		if at > w.cursor {
			w.cursor = at
		}
		w.dispatching = true
		w.Executed++
		w.mu.Unlock()
		ev.Fire()
	}
}

// WaitUntil blocks the calling goroutine until the wall clock reaches t
// (events keep dispatching meanwhile). It is how drivers express "run the
// deployment for this horizon".
func (w *WallScheduler) WaitUntil(t Time) {
	for {
		w.mu.Lock()
		now := w.nowLocked()
		started := w.started
		w.mu.Unlock()
		if !started {
			panic("sim: WaitUntil before Start")
		}
		if now >= t {
			return
		}
		d := time.Duration(t-now) * time.Microsecond
		select {
		case <-time.After(d):
			return
		case <-w.quit:
			return
		}
	}
}

// Stop halts dispatch: no further callbacks run after the in-flight one
// returns. Safe to call from any goroutine, from callbacks, and more than
// once.
func (w *WallScheduler) Stop() {
	w.stopOnce.Do(func() {
		w.mu.Lock()
		w.stopped = true
		w.mu.Unlock()
		close(w.quit)
	})
}

// Close stops the executive and waits for the executor goroutine to exit
// — the shutdown path leak tests pin. Events still pending are discarded.
// Close before Start is safe.
func (w *WallScheduler) Close() {
	w.mu.Lock()
	started := w.started
	w.mu.Unlock()
	w.Stop()
	if started {
		<-w.done
	}
}
