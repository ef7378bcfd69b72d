package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0us"},
		{5, "5us"},
		{1500, "1.500ms"},
		{2 * Second, "2.000s"},
		{Never, "never"},
		{-3 * Millisecond, "-3.000ms"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
	if got := (3 * Millisecond).Millis(); got != 3.0 {
		t.Errorf("Millis() = %v, want 3", got)
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v, want 1.5s", got)
	}
}

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(30, func() { order = append(order, 3) })
	k.At(10, func() { order = append(order, 1) })
	k.At(20, func() { order = append(order, 2) })
	k.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if k.Now() != 30 {
		t.Errorf("Now() = %v, want 30", k.Now())
	}
}

func TestKernelFIFOTieBreak(t *testing.T) {
	// Events at the same timestamp must run in insertion order.
	k := NewKernel(1)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		k.At(5, func() { order = append(order, i) })
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated at index %d: got %d", i, v)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel(1)
	var hits []Time
	k.At(10, func() {
		hits = append(hits, k.Now())
		k.After(5, func() { hits = append(hits, k.Now()) })
	})
	k.RunAll()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel(1)
	var count int
	for _, tm := range []Time{5, 10, 15, 20} {
		k.At(tm, func() { count++ })
	}
	n := k.Run(12)
	if n != 2 || count != 2 {
		t.Fatalf("Run(12) dispatched %d (count %d), want 2", n, count)
	}
	if k.Now() != 12 {
		t.Errorf("clock after Run(12) = %v, want 12", k.Now())
	}
	if k.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", k.Pending())
	}
	if k.NextEventTime() != 15 {
		t.Errorf("NextEventTime() = %v, want 15", k.NextEventTime())
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel(1)
	var count int
	k.At(1, func() { count++; k.Stop() })
	k.At(2, func() { count++ })
	k.RunAll()
	if count != 1 {
		t.Fatalf("Stop did not halt: count = %d", count)
	}
	if !k.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
	if k.Step() {
		t.Error("Step() succeeded after Stop")
	}
}

func TestKernelPastSchedulingPanics(t *testing.T) {
	k := NewKernel(1)
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.RunAll()
}

func TestKernelNegativeAfterPanics(t *testing.T) {
	k := NewKernel(1)
	defer func() {
		if recover() == nil {
			t.Error("After(-1) did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestKernelEmptyNextEventTime(t *testing.T) {
	k := NewKernel(1)
	if k.NextEventTime() != Never {
		t.Errorf("NextEventTime on empty queue = %v, want Never", k.NextEventTime())
	}
}

func TestKernelDeterminism(t *testing.T) {
	// Two kernels with identical seeds and schedules produce identical
	// random draws interleaved with events.
	run := func() []uint64 {
		k := NewKernel(42)
		var draws []uint64
		for i := 0; i < 50; i++ {
			k.At(Time(i*3), func() { draws = append(draws, k.RNG().Uint64()) })
		}
		k.RunAll()
		return draws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism violated at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + int(seed%50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r1 := NewRNG(99)
	f1 := r1.Fork()
	// Drawing from the fork must not perturb the parent relative to a
	// parent that forked but never used the child.
	r2 := NewRNG(99)
	_ = r2.Fork()
	for i := 0; i < 100; i++ {
		f1.Uint64()
	}
	for i := 0; i < 100; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("fork usage perturbed parent stream")
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGDurationRange(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		d := r.Duration(Second)
		if d < 0 || d >= Second {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	// Crude chi-square-ish check: each of 10 buckets of Intn(10) should
	// receive roughly 1/10 of 100k draws.
	r := NewRNG(1234)
	const draws = 100000
	var buckets [10]int
	for i := 0; i < draws; i++ {
		buckets[r.Intn(10)]++
	}
	for b, c := range buckets {
		if c < draws/10-draws/50 || c > draws/10+draws/50 {
			t.Errorf("bucket %d has %d draws, expected ~%d", b, c, draws/10)
		}
	}
}

func BenchmarkKernelEventDispatch(b *testing.B) {
	k := NewKernel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.At(k.Now()+1, func() {})
		k.Step()
	}
}

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

// --- Handle / cancellation edge cases ---------------------------------------

func TestKernelCancelPending(t *testing.T) {
	k := NewKernel(1)
	var fired []int
	k.At(10, func() { fired = append(fired, 1) })
	h := k.At(20, func() { fired = append(fired, 2) })
	k.At(30, func() { fired = append(fired, 3) })
	if !k.Cancel(h) {
		t.Fatal("Cancel of a pending event returned false")
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending() = %d after cancel, want 2", k.Pending())
	}
	k.RunAll()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("cancelled event ran: fired = %v", fired)
	}
}

func TestKernelCancelAlreadyFired(t *testing.T) {
	k := NewKernel(1)
	h := k.At(5, func() {})
	k.RunAll()
	if k.Cancel(h) {
		t.Error("Cancel of an already-fired event returned true")
	}
	// A second cancel of the same stale handle must also be a no-op.
	if k.Cancel(h) {
		t.Error("double Cancel returned true")
	}
}

func TestKernelCancelZeroHandle(t *testing.T) {
	k := NewKernel(1)
	if k.Cancel(0) {
		t.Error("Cancel(0) returned true")
	}
	if k.Cancel(Handle(1<<40 | 7)) {
		t.Error("Cancel of a never-issued handle returned true")
	}
}

func TestKernelStaleHandleAfterSlotReuse(t *testing.T) {
	// A handle whose pool slot was recycled must not cancel the new
	// occupant (generation guard).
	k := NewKernel(1)
	h := k.At(1, func() {})
	k.Step() // fires h; its slot returns to the pool
	ran := false
	k.At(2, func() { ran = true }) // reuses the slot
	if k.Cancel(h) {
		t.Error("stale handle cancelled a recycled slot")
	}
	k.RunAll()
	if !ran {
		t.Error("recycled-slot event did not run")
	}
}

func TestKernelAtExactlyNow(t *testing.T) {
	// Scheduling at exactly Now must run (not panic), after already-queued
	// same-instant events, in insertion order.
	k := NewKernel(1)
	var order []int
	k.At(10, func() {
		order = append(order, 1)
		k.At(k.Now(), func() { order = append(order, 3) })
	})
	k.At(10, func() { order = append(order, 2) })
	k.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("At(Now) ordering wrong: %v", order)
	}
	if k.Now() != 10 {
		t.Errorf("Now() = %v, want 10", k.Now())
	}
}

func TestKernelRunUntilClockSemantics(t *testing.T) {
	// Run(until) with an empty queue advances the clock to until; with a
	// later event pending, the clock stops at until and the event stays.
	k := NewKernel(1)
	k.Run(50)
	if k.Now() != 50 {
		t.Fatalf("Run on empty queue left clock at %v, want 50", k.Now())
	}
	fired := false
	k.At(100, func() { fired = true })
	if n := k.Run(70); n != 0 {
		t.Fatalf("Run(70) dispatched %d events, want 0", n)
	}
	if k.Now() != 70 || fired {
		t.Fatalf("clock %v fired=%v, want 70/false", k.Now(), fired)
	}
	// An event exactly at until is dispatched and the clock lands on it.
	if n := k.Run(100); n != 1 || !fired || k.Now() != 100 {
		t.Fatalf("Run(100): n=%d fired=%v now=%v", n, fired, k.Now())
	}
	// Running backwards-in-time bounds is a no-op that never rewinds.
	k.Run(10)
	if k.Now() != 100 {
		t.Errorf("Run(10) rewound the clock to %v", k.Now())
	}
}

func TestKernelStopMidBatchKeepsRemainderPending(t *testing.T) {
	// Stop inside a same-timestamp batch: later events of the batch must
	// not run and must stay pending (matching one-at-a-time semantics).
	k := NewKernel(1)
	var order []int
	k.At(5, func() { order = append(order, 1); k.Stop() })
	k.At(5, func() { order = append(order, 2) })
	k.At(5, func() { order = append(order, 3) })
	k.RunAll()
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("events ran after Stop: %v", order)
	}
	if k.Pending() != 2 {
		t.Fatalf("Pending() = %d after mid-batch Stop, want 2", k.Pending())
	}
}

func TestKernelCancelInterleavedWithDispatch(t *testing.T) {
	// A callback cancelling a same-timestamp later event: the event was
	// already popped into the batch, so cancellation reports false and the
	// event still runs — Cancel only covers events still in the queue.
	// Cancelling a *later-timestamp* event from a callback works.
	k := NewKernel(1)
	var fired []int
	var hLater Handle
	k.At(5, func() {
		fired = append(fired, 1)
		if k.Cancel(hLater) != true {
			t.Error("cancel of later-timestamp event from callback failed")
		}
	})
	hLater = k.At(9, func() { fired = append(fired, 9) })
	k.RunAll()
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("fired = %v, want [1]", fired)
	}
}

func TestKernelHeapStressOrdering(t *testing.T) {
	// Random schedule/cancel interleavings must still dispatch in strict
	// (time, seq) order with no event lost or duplicated.
	k := NewKernel(7)
	rng := NewRNG(99)
	type rec struct {
		at  Time
		seq int
	}
	var got []rec
	n := 0
	var handles []Handle
	for i := 0; i < 5000; i++ {
		at := Time(rng.Intn(1000))
		i := i
		h := k.At(at, func() { got = append(got, rec{k.Now(), i}) })
		n++
		handles = append(handles, h)
		if rng.Bool(0.3) && len(handles) > 0 {
			j := rng.Intn(len(handles))
			if k.Cancel(handles[j]) {
				n--
			}
		}
	}
	k.RunAll()
	if len(got) != n {
		t.Fatalf("dispatched %d events, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("time order violated at %d: %v after %v", i, got[i].at, got[i-1].at)
		}
	}
}

// throughputChains is the fan-in of the standard kernel workload: enough
// concurrent activity to keep a realistic pending-set depth (a BTR
// deployment keeps hundreds-to-thousands of events in flight — slot
// starts/ends, arrival watchdogs, and network deliveries per period).
const throughputChains = 1024

// watchdogHoldoff is how far past its work event each chain's watchdog is
// armed, mirroring the runtime's arrival-watchdog margin.
const watchdogHoldoff = 1000 * Microsecond

// throughputLoad seeds the standard workload on k: per chain, a
// self-rescheduling work event (pseudo-random delay, cheap LCG) that arms
// an arrival watchdog each round and cancels the previous round's, the
// way the runtime disarms a watchdog when the awaited record arrives.
// One round in 64 "omits": its watchdog is left to fire, so the firing
// path runs too. The returned counter is the number of work events
// dispatched; read it after the run drains.
func throughputLoad(k *Kernel, events int) *int {
	useful := new(int)
	remaining := events
	for c := 0; c < throughputChains; c++ {
		state := uint64(c)*0x9e3779b97f4a7c15 + 1
		var armed Handle
		var tick func()
		tick = func() {
			*useful++
			if remaining <= 0 {
				return
			}
			remaining--
			if armed != 0 {
				k.Cancel(armed)
			}
			state = state*6364136223846793005 + 1442695040888963407
			delay := Time(state>>54) + 1 // [1, 1024] us
			if state&63 != 0 {           // the omission case leaves no watchdog to cancel
				armed = k.After(delay+watchdogHoldoff, func() {})
			} else {
				armed = 0
			}
			k.After(delay, tick)
		}
		k.After(Time(c+1), tick)
	}
	return useful
}

func BenchmarkKernelThroughput(b *testing.B) {
	// The headline kernel benchmark: one op = one useful (work) event of
	// the standard BTR-shaped workload — 1024 self-rescheduling chains,
	// each arming an arrival watchdog per round and cancelling it when the
	// "record" arrives (1/64 rounds omit, letting the watchdog fire).
	b.ReportAllocs()
	k := NewKernel(1)
	throughputLoad(k, b.N)
	b.ResetTimer()
	k.RunAll()
}

func BenchmarkKernelWatchdogArmCancel(b *testing.B) {
	// The watchdog pattern the runtime uses: arm a timer, cancel it before
	// it fires (the old kernel had no Cancel and let dead closures fire).
	b.ReportAllocs()
	k := NewKernel(1)
	for i := 0; i < b.N; i++ {
		h := k.After(1000, func() { b.Fatal("cancelled watchdog fired") })
		k.Cancel(h)
		if i%64 == 0 {
			k.Run(k.Now() + 1) // keep the clock moving
		}
	}
}
