package runtime

import (
	"testing"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/member"
	"btr/internal/network"
	"btr/internal/sim"
)

// arenaTracker is a scheduler that checks the period-arena contract on
// the node-period events it carries: no event is scheduled again while
// it is pending, and before every event fires, each arena's count equals
// its pending events and an arena on a free list has none pending.
type arenaTracker struct {
	*sim.Kernel
	t        *testing.T
	sys      *System
	pending  map[*periodEvent]int
	byHandle map[sim.Handle]*periodEvent
	// arenas is every arena an event was scheduled in, by node.
	arenas map[*periodArena]network.NodeID
}

func newArenaTracker(t *testing.T, k *sim.Kernel) *arenaTracker {
	return &arenaTracker{
		Kernel: k, t: t,
		pending:  map[*periodEvent]int{},
		byHandle: map[sim.Handle]*periodEvent{},
		arenas:   map[*periodArena]network.NodeID{},
	}
}

// trackedEvent carries one node-period event through the kernel.
type trackedEvent struct {
	tr *arenaTracker
	h  sim.Handle
	ev *periodEvent
}

// Fire runs the event; it stays pending until its Fire has returned.
func (e *trackedEvent) Fire() {
	delete(e.tr.byHandle, e.h)
	e.tr.check()
	e.ev.Fire()
	e.tr.pending[e.ev]--
}

func (tr *arenaTracker) AtEvent(t sim.Time, ev sim.Event) sim.Handle {
	pe, ok := ev.(*periodEvent)
	if !ok {
		return tr.Kernel.AtEvent(t, ev)
	}
	if tr.pending[pe] != 0 {
		tr.t.Fatalf("node %d, period %d: an event slot is scheduled again while still pending", pe.n.id, pe.p)
	}
	tr.pending[pe]++
	tr.arenas[pe.arena] = pe.n.id
	te := &trackedEvent{tr: tr, ev: pe}
	te.h = tr.Kernel.AtEvent(t, te)
	tr.byHandle[te.h] = pe
	return te.h
}

func (tr *arenaTracker) Cancel(h sim.Handle) bool {
	ok := tr.Kernel.Cancel(h)
	if pe, tracked := tr.byHandle[h]; tracked && ok {
		delete(tr.byHandle, h)
		tr.pending[pe]--
	}
	return ok
}

// check asserts the contract between two events.
func (tr *arenaTracker) check() {
	inArena := map[*periodArena]int{}
	for pe, c := range tr.pending {
		if c > 0 && pe.arena == nil {
			tr.t.Fatalf("node %d, period %d: a pending event was cleared", pe.n.id, pe.p)
		}
		if c > 0 {
			inArena[pe.arena] += c
		}
	}
	for a, id := range tr.arenas {
		if a.live < 0 || a.live != inArena[a] {
			tr.t.Fatalf("node %d: an arena counts %d live events, %d are pending", id, a.live, inArena[a])
		}
	}
	for _, n := range tr.sys.nodes {
		for _, a := range n.spareArenas {
			if inArena[a] != 0 {
				tr.t.Fatalf("node %d: an arena is on the free list while %d of its events are pending", n.id, inArena[a])
			}
		}
	}
}

// checkRecycled asserts that each node ran on a handful of arenas, not
// one per period.
func (tr *arenaTracker) checkRecycled(periods int) {
	per := map[network.NodeID]int{}
	for _, id := range tr.arenas {
		per[id]++
	}
	for id, c := range per {
		if c > 4 {
			tr.t.Errorf("node %d made %d arenas in %d periods: they are not recycled", id, c, periods)
		}
	}
}

// TestPeriodArenaLifecycle runs a deployment with membership epochs
// through corrupt-all, a join, a crash and a retirement, checking the
// arena contract before every node-period event fires.
func TestPeriodArenaLifecycle(t *testing.T) {
	var tr *arenaTracker
	h := newEpochHarnessOn(t, 3, func(k *sim.Kernel) sim.Scheduler {
		tr = newArenaTracker(t, k)
		return tr
	})
	tr.sys = h.sys
	corrupt := &Behavior{OnOutput: func(rec evidence.Record, _ flow.TaskID) (evidence.Record, sim.Time, bool) {
		rec.Value = append([]byte("x"), rec.Value...)
		return rec, 0, true
	}}
	h.k.At(2*epochTestPeriod, func() { h.sys.SetBehavior(2, corrupt) })
	h.sys.ScheduleReconfig(4*epochTestPeriod, member.Delta{Join: []network.NodeID{6}, Retire: []network.NodeID{2}})
	h.k.At(10*epochTestPeriod+sim.Millisecond, func() { h.sys.Crash(4) })
	h.sys.ScheduleReconfig(14*epochTestPeriod, member.Delta{Join: []network.NodeID{7}, Retire: []network.NodeID{4}})
	h.sys.Start()
	const periods = 24
	h.k.Run(periods * epochTestPeriod)
	k := h.kinds()
	if k[EpochActivated] != 2 || k[ModeSwitch] == 0 || k[WatchdogExpired] == 0 || k[EvidenceAccepted] == 0 {
		t.Fatalf("run lacks the steps the check is about: %v", k)
	}
	tr.check()
	tr.checkRecycled(periods)
}

// TestDisarmOfPoppedWatchdog: a watchdog disarmed at its own instant, by
// an event that pops in the same dispatch batch ahead of it, is not
// cancelled (the kernel has popped it) and still fires; only its Fire
// may retire it from its arena.
func TestDisarmOfPoppedWatchdog(t *testing.T) {
	var tr *arenaTracker
	h := newEpochHarnessOn(t, 1, func(k *sim.Kernel) sim.Scheduler {
		tr = newArenaTracker(t, k)
		return tr
	})
	tr.sys = h.sys
	const p, crashed, periods = 5, network.NodeID(1), 8
	strat := h.sys.Node(0).strat
	cur := strat.Plans[""]
	var consumer *Node
	var we watchedEdge
	for _, n := range h.sys.nodes {
		for _, w := range n.watchedEdges(cur) {
			if consumer == nil && n.id != crashed && cur.Assign[w.e.From] == crashed {
				consumer, we = n, w
			}
		}
	}
	if consumer == nil {
		t.Fatalf("no node watches an edge from node %d", crashed)
	}
	// Both are scheduled before the period's watchdogs are armed, so
	// they fire ahead of the watchdog at the same instant.
	h.k.At(consumer.periodStart(p), func() { h.sys.Crash(crashed) })
	due := consumer.periodStart(p) + we.w.Arrive + strat.Opts.WatchdogMargin
	disarmed := false
	h.k.At(due, func() {
		wk := watchKey{p, we.e.From, we.e.To}
		w, ok := consumer.watchdogs[wk]
		if !ok {
			t.Fatal("the silent edge's watchdog is not armed at its instant")
		}
		consumer.disarm(wk, w)
		if _, pending := tr.byHandle[w.h]; !pending {
			t.Fatal("the watchdog was cancelled: it was not popped in the same batch")
		}
		disarmed = true
	})
	h.sys.Start()
	h.k.Run(periods * epochTestPeriod)
	if !disarmed {
		t.Fatal("the disarm never ran")
	}
	tr.check()
	tr.checkRecycled(periods)
}
