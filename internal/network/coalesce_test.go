package network

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// TestTCPBusCoalescedFlushDelivers proves the write-side coalescing end
// to end: a backlog accumulated while the peer is partitioned is flushed
// as batch frames when the link heals — evidence first, FIFO within each
// class.
func TestTCPBusCoalescedFlushDelivers(t *testing.T) {
	const nFg, nEv = 30, 10
	f := tcpBusTransportFixture(t, FullMesh(2, contractBW, contractProp))
	b := f.hosts[0].(*TCPBus)
	// Partition the outgoing direction so the backlog piles up in pend.
	b.SetPeerRefused(1, true)
	f.run(func() {
		for i := 0; i < nFg; i++ {
			if !b.SendDirect(0, 1, ClassForeground, []byte(fmt.Sprintf("f%02d", i))) {
				t.Errorf("foreground send %d refused", i)
			}
		}
		for i := 0; i < nEv; i++ {
			if !b.SendDirect(0, 1, ClassEvidence, []byte(fmt.Sprintf("e%02d", i))) {
				t.Errorf("evidence send %d refused", i)
			}
		}
	})
	b.SetPeerRefused(1, false) // heal: the flush is one coalesced write
	// Evidence drains ahead of the foreground backlog, FIFO within class.
	for i, d := range f.awaitDeliveries(t, nFg+nEv) {
		want := fmt.Sprintf("e%02d", i)
		if i >= nEv {
			want = fmt.Sprintf("f%02d", i-nEv)
		}
		if string(d.m.Payload) != want {
			t.Fatalf("delivery %d = %q, want %q (evidence first, FIFO within class)", i, d.m.Payload, want)
		}
	}
}

// TestTCPBusBacklogSurvivesFailedWrite is the write-failure regression: a
// partition closes an established connection under an idle write loop,
// so the next batch's write fails having sent nothing. That batch must go
// back to the backlog and arrive, in order, once the link heals.
func TestTCPBusBacklogSurvivesFailedWrite(t *testing.T) {
	const n = 40
	f := tcpBusTransportFixture(t, FullMesh(2, contractBW, contractProp))
	b := f.hosts[0].(*TCPBus)
	if !f.await(func() bool { return b.ConnectedCount() == 1 }) {
		t.Fatal("link never connected")
	}
	b.SetPeerRefused(1, true)
	f.run(func() {
		for i := 0; i < n; i++ {
			b.SendDirect(0, 1, ClassForeground, seqPayload(i))
		}
	})
	b.SetPeerRefused(1, false)
	for i, d := range f.awaitDeliveries(t, n) {
		if s := binary.LittleEndian.Uint32(d.m.Payload); int(s) != i {
			t.Fatalf("position %d got seq %d: backlog reordered", i, s)
		}
	}
}

// TestTCPBusShedsClassAware pins the backpressure policy on a link whose
// peer never answers: foreground tail-drops at QueueDepth, evidence
// borrows foreground's budget by evicting its oldest, and only an
// all-evidence backlog makes evidence evict evidence. Every shed is
// surfaced in MsgsShed (a subset of MsgsDropped) and per-link counters.
func TestTCPBusShedsClassAware(t *testing.T) {
	cfg := DefaultTCPConfig(1)
	cfg.QueueDepth = 4 // budget: 4 foreground + 4 borrowed by evidence
	w, b, _ := soloTCPBus(t, cfg)
	w.Start()
	done := make(chan struct{})
	send := func(class Class, n int) (accepted int) {
		for i := 0; i < n; i++ {
			if b.SendDirect(0, 1, class, []byte("x")) {
				accepted++
			}
		}
		return accepted
	}
	w.At(0, func() {
		defer close(done)
		// Foreground fills its QueueDepth share; the 5th sheds itself.
		if got := send(ClassForeground, 5); got != 4 {
			t.Errorf("foreground accepted = %d, want 4", got)
		}
		// Evidence fills the rest of the shared budget without shedding.
		if got := send(ClassEvidence, 4); got != 4 {
			t.Errorf("evidence accepted = %d, want 4", got)
		}
		// At the ceiling, evidence evicts the oldest queued foreground.
		if got := send(ClassEvidence, 4); got != 4 {
			t.Errorf("evidence over budget accepted = %d, want 4 (evict foreground)", got)
		}
		// Foreground exhausted: evidence now evicts its own oldest.
		if got := send(ClassEvidence, 2); got != 2 {
			t.Errorf("evidence self-evict accepted = %d, want 2", got)
		}
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sends never completed")
	}
	st := b.Snapshot()
	if st.MsgsSent[ClassForeground] != 4 || st.MsgsSent[ClassEvidence] != 10 {
		t.Errorf("sent = %d fg / %d ev, want 4 / 10", st.MsgsSent[ClassForeground], st.MsgsSent[ClassEvidence])
	}
	// Foreground sheds: 1 tail-drop + 4 evictions; evidence sheds: 2.
	if st.MsgsShed[ClassForeground] != 5 || st.MsgsShed[ClassEvidence] != 2 {
		t.Errorf("shed = %d fg / %d ev, want 5 / 2", st.MsgsShed[ClassForeground], st.MsgsShed[ClassEvidence])
	}
	if st.MsgsDropped != st.MsgsShed {
		t.Errorf("every drop here is a shed: dropped %v, shed %v", st.MsgsDropped, st.MsgsShed)
	}
	if got := st.TotalShed(); got != 7 {
		t.Errorf("TotalShed = %d, want 7", got)
	}
	for _, ls := range b.LinkStats() {
		if ls.Drops != 7 || ls.Shed != 7 {
			t.Errorf("link counters = drops %d / shed %d, want 7 / 7", ls.Drops, ls.Shed)
		}
	}
}

// BenchmarkTCPBusEnqueue measures the deferred-encode send path (the
// per-message cost the coalescing write loop amortizes syscalls over),
// including the class-aware shed policy once the backlog saturates.
func BenchmarkTCPBusEnqueue(b *testing.B) {
	_, bus, _ := soloTCPBus(b, DefaultTCPConfig(1))
	payload := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.SendDirect(0, 1, ClassEvidence, payload)
	}
}
