package sim

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitNoLeak asserts the goroutine count returns to the baseline,
// extending the leak-test pattern from internal/campaign.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

func TestWallSchedulerDispatchesInOrder(t *testing.T) {
	before := runtime.NumGoroutine()
	w := NewWallScheduler(1)
	var mu sync.Mutex
	var order []int
	done := make(chan struct{})
	w.At(2*Millisecond, func() { mu.Lock(); order = append(order, 2); mu.Unlock() })
	w.At(1*Millisecond, func() { mu.Lock(); order = append(order, 1); mu.Unlock() })
	w.At(3*Millisecond, func() {
		mu.Lock()
		order = append(order, 3)
		mu.Unlock()
		close(done)
	})
	w.Start()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wall scheduler did not dispatch within 5s")
	}
	w.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("dispatch order %v, want [1 2 3]", order)
	}
	waitNoLeak(t, before)
}

func TestWallSchedulerPastTimeClampsToNow(t *testing.T) {
	w := NewWallScheduler(1)
	w.Start()
	defer w.Close()
	time.Sleep(2 * time.Millisecond)
	done := make(chan Time, 1)
	// Schedule "in the past": must run promptly, not panic.
	w.At(0, func() { done <- w.Now() })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("past-scheduled event never ran")
	}
}

func TestWallSchedulerCancel(t *testing.T) {
	w := NewWallScheduler(1)
	w.Start()
	defer w.Close()
	fired := make(chan struct{}, 1)
	h := w.After(50*Millisecond, func() { fired <- struct{}{} })
	if !w.Cancel(h) {
		t.Fatal("Cancel of pending wall event returned false")
	}
	marker := make(chan struct{})
	w.After(80*Millisecond, func() { close(marker) })
	select {
	case <-fired:
		t.Fatal("cancelled wall event fired")
	case <-marker:
	case <-time.After(5 * time.Second):
		t.Fatal("marker event never ran")
	}
	if w.Cancel(h) {
		t.Error("second Cancel of same handle returned true")
	}
}

func TestWallSchedulerCallbacksNeverOverlap(t *testing.T) {
	// The single-executor guarantee the runtime's no-locking discipline
	// rests on: no two callbacks run concurrently even when scheduled from
	// many goroutines at identical times.
	w := NewWallScheduler(1)
	w.Start()
	var inFlight, maxFlight int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				wg.Add(1)
				w.At(Millisecond, func() {
					mu.Lock()
					inFlight++
					if inFlight > maxFlight {
						maxFlight = inFlight
					}
					mu.Unlock()
					mu.Lock()
					inFlight--
					mu.Unlock()
					wg.Done()
				})
			}
		}()
	}
	wg.Wait()
	w.Close()
	if maxFlight > 1 {
		t.Fatalf("callbacks overlapped: max in flight %d", maxFlight)
	}
}

func TestWallSchedulerWaitUntil(t *testing.T) {
	w := NewWallScheduler(1)
	w.Start()
	defer w.Close()
	start := time.Now()
	w.WaitUntil(20 * Millisecond)
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("WaitUntil returned after %v, want >=20ms-ish", elapsed)
	}
	if now := w.Now(); now < 15*Millisecond {
		t.Errorf("Now() = %v after WaitUntil(20ms)", now)
	}
}

func TestWallSchedulerCloseIsLeakFreeAndIdempotent(t *testing.T) {
	before := runtime.NumGoroutine()
	// Close with pending events, double Close, Close before Start.
	w := NewWallScheduler(1)
	w.Start()
	w.After(Minute, func() { t.Error("discarded event ran") })
	w.Close()
	w.Close()
	unstarted := NewWallScheduler(2)
	unstarted.Close()
	// Scheduling after Stop is accepted but never runs.
	w.At(0, func() { t.Error("post-Stop event ran") })
	time.Sleep(5 * time.Millisecond)
	waitNoLeak(t, before)
}

func TestWallSchedulerEarlierEventPreemptsSleep(t *testing.T) {
	// The executor sleeps toward a far deadline; a new earlier event must
	// wake it and run first.
	w := NewWallScheduler(1)
	w.Start()
	defer w.Close()
	var mu sync.Mutex
	var order []string
	done := make(chan struct{})
	w.After(200*Millisecond, func() {
		mu.Lock()
		order = append(order, "late")
		mu.Unlock()
		close(done)
	})
	time.Sleep(2 * time.Millisecond)
	w.After(5*Millisecond, func() { mu.Lock(); order = append(order, "early"); mu.Unlock() })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("late event never ran")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "early" {
		t.Fatalf("order = %v, want [early late]", order)
	}
}

// TestWallSchedulerStartAtOrigin proves the joining-in-flight clock: a
// scheduler started at origin reads origin immediately, dispatches
// events scheduled relative to origin at the right wall instants, and
// clamps pre-origin times to "run next".
func TestWallSchedulerStartAtOrigin(t *testing.T) {
	before := runtime.NumGoroutine()
	const origin = 5 * Second
	w := NewWallScheduler(1)
	var mu sync.Mutex
	var seen []Time
	note := func() {
		mu.Lock()
		seen = append(seen, w.Now())
		mu.Unlock()
	}
	w.At(origin, note)                // due immediately at start
	w.At(2*Second, note)              // pre-origin: clamps, runs first
	w.At(origin+20*Millisecond, note) // genuinely in the future
	done := make(chan struct{})
	w.At(origin+30*Millisecond, func() { close(done) })
	w.StartAt(origin)
	if now := w.Now(); now < origin {
		t.Fatalf("Now = %v right after StartAt, want >= %v", now, origin)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("origin-relative events never dispatched")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("dispatched %d events, want 3", len(seen))
	}
	// The pre-origin event clamps to the origin cursor; logical times
	// never read below origin.
	for i, ts := range seen {
		if ts < origin {
			t.Errorf("event %d saw Now %v < origin", i, ts)
		}
	}
	if seen[2] < origin+20*Millisecond {
		t.Errorf("future event ran at %v, before its scheduled time", seen[2])
	}
	w.Close()
	waitNoLeak(t, before)
}

func TestWallSchedulerStartAtNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative origin accepted")
		}
	}()
	NewWallScheduler(1).StartAt(-1)
}
