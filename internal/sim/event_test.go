package sim

import (
	"slices"
	"testing"
	"time"
)

// recorder is a pointer event that appends its tag to a log. Under the
// WallScheduler only the executor writes the log; tests read it after
// drain returns, which orders the two.
type recorder struct {
	tag int
	log *[]int
}

func (r *recorder) Fire() { *r.log = append(*r.log, r.tag) }

// eachScheduler runs body against a fresh Kernel and a fresh
// WallScheduler. body schedules events, then calls drain(t), which
// dispatches every event due by t and returns once they have run.
func eachScheduler(t *testing.T, body func(t *testing.T, s Scheduler, drain func(Time))) {
	t.Run("kernel", func(t *testing.T) {
		k := NewKernel(1)
		body(t, k, func(until Time) { k.Run(until) })
	})
	t.Run("wall", func(t *testing.T) {
		w := NewWallScheduler(1)
		defer w.Close()
		started := false
		body(t, w, func(until Time) {
			done := make(chan struct{})
			w.At(until, func() { close(done) })
			if !started {
				started = true
				w.Start()
			}
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("wall scheduler did not drain within 5s")
			}
		})
	})
}

// TestAtEventMixesWithAtInInsertionOrder: closures and typed events
// scheduled for one instant share one insertion order, and one Event
// value pending twice fires twice.
func TestAtEventMixesWithAtInInsertionOrder(t *testing.T) {
	eachScheduler(t, func(t *testing.T, s Scheduler, drain func(Time)) {
		var log []int
		at := Millisecond
		twice := &recorder{4, &log}
		s.At(at, func() { log = append(log, 1) })
		s.AtEvent(at, &recorder{2, &log})
		s.At(at, func() { log = append(log, 3) })
		s.AtEvent(at, twice)
		s.AtEvent(at, Func(func() { log = append(log, 5) }))
		s.AtEvent(at, twice)
		s.AtEvent(at/2, &recorder{0, &log})
		drain(2 * Millisecond)
		if want := []int{0, 1, 2, 3, 4, 5, 4}; !slices.Equal(log, want) {
			t.Fatalf("fired %v, want %v", log, want)
		}
	})
}

// TestAtEventCancel: an AtEvent handle cancels like an At handle, and a
// cancelled or fired handle is stale, even once its slot is reused.
func TestAtEventCancel(t *testing.T) {
	eachScheduler(t, func(t *testing.T, s Scheduler, drain func(Time)) {
		var log []int
		h := s.AtEvent(Millisecond, &recorder{1, &log})
		if !s.Cancel(h) {
			t.Fatal("Cancel of a pending AtEvent handle returned false")
		}
		if s.Cancel(h) {
			t.Fatal("second Cancel of the same handle returned true")
		}
		h2 := s.AtEvent(Millisecond, &recorder{2, &log}) // reuses h's slot
		if s.Cancel(h) {
			t.Fatal("stale handle cancelled the event that reused its slot")
		}
		drain(2 * Millisecond)
		if want := []int{2}; !slices.Equal(log, want) {
			t.Fatalf("fired %v, want %v", log, want)
		}
		if s.Cancel(h2) {
			t.Fatal("Cancel of a fired AtEvent handle returned true")
		}
	})
}

// TestKernelStopMidBatchRequeuesTypedEventWithSeq: events a mid-batch
// Stop leaves unrun go back with their original sequence numbers, so they
// still precede an event a callback scheduled for the same instant during
// the batch.
func TestKernelStopMidBatchRequeuesTypedEventWithSeq(t *testing.T) {
	k := NewKernel(1)
	var log []int
	k.At(5, func() {
		log = append(log, 1)
		k.AtEvent(5, &recorder{4, &log}) // later seq than 2 and 3
		k.Stop()
	})
	k.AtEvent(5, &recorder{2, &log})
	k.At(5, func() { log = append(log, 3) })
	k.RunAll()
	if want := []int{1}; !slices.Equal(log, want) {
		t.Fatalf("fired %v before the restart, want %v", log, want)
	}
	if k.Pending() != 3 {
		t.Fatalf("Pending() = %d after mid-batch Stop, want 3", k.Pending())
	}
	k.stopped = false
	k.RunAll()
	if want := []int{1, 2, 3, 4}; !slices.Equal(log, want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
}

// counter is a pointer event that counts its firings and, when done is
// set, signals each one.
type counter struct {
	n    int
	done chan struct{}
}

func (c *counter) Fire() {
	c.n++
	if c.done != nil {
		c.done <- struct{}{}
	}
}

// TestAtEventSteadyStateAllocatesNothing: scheduling and dispatching a
// pointer event reuses pooled records and the batch buffer.
func TestAtEventSteadyStateAllocatesNothing(t *testing.T) {
	t.Run("kernel", func(t *testing.T) {
		k := NewKernel(1)
		ev := &counter{}
		step := func() {
			k.AtEvent(k.Now()+1, ev)
			k.AtEvent(k.Now()+1, ev) // a same-instant pair takes the batch path
			k.AtEvent(k.Now()+2, ev)
			k.RunAll()
		}
		step() // warm the pool and the batch buffer
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Fatalf("%.1f allocations per step, want 0", allocs)
		}
		if ev.n != 3*102 {
			t.Fatalf("fired %d times, want %d", ev.n, 3*102)
		}
	})
	t.Run("wall", func(t *testing.T) {
		w := NewWallScheduler(1)
		defer w.Close()
		ev := &counter{done: make(chan struct{}, 1)}
		w.Start()
		step := func() {
			w.AtEvent(0, ev) // in the past: runs next
			<-ev.done
		}
		step()
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Fatalf("%.1f allocations per step, want 0", allocs)
		}
	})
}
