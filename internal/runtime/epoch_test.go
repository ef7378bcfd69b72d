package runtime

import (
	"strings"
	"testing"

	"btr/internal/flow"
	"btr/internal/member"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sig"
	"btr/internal/sim"
)

// epochHarness assembles a runtime System with membership epochs over
// an 8-slot mesh universe (slots 0..5 active), the way core/live glue
// does, but exposed for protocol-level poking.
type epochHarness struct {
	k      *sim.Kernel
	net    *network.Network
	reg    *sig.Registry
	sys    *System
	events []Event
}

func newEpochHarness(t *testing.T, seed uint64) *epochHarness {
	t.Helper()
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	universe := network.FullMesh(8, 20_000_000, 50*sim.Microsecond)
	opts := plan.DefaultOptions(1, 500*sim.Millisecond)
	k := sim.NewKernel(seed)
	nw := network.New(k, universe, network.DefaultConfig())
	reg := sig.NewRegistry(seed, universe.N)
	mp := member.NewPlanner(g, opts, nil)
	genesis := member.Genesis([]network.NodeID{0, 1, 2, 3, 4, 5})
	glog, err := member.NewLog(universe, genesis)
	if err != nil {
		t.Fatal(err)
	}
	ep0, err := mp.ForEpoch(genesis, glog.Wiring())
	if err != nil {
		t.Fatal(err)
	}
	h := &epochHarness{k: k, net: nw, reg: reg}
	h.sys = New(Config{
		Kernel: k, Net: nw, Registry: reg,
		Strategy: ep0.Strategy, Planner: PlanSource(ep0.Resolve),
		Observer: func(ev Event) { h.events = append(h.events, ev) },
		Epochs: &EpochConfig{
			Genesis: genesis,
			Resolve: PlannerResolve(mp),
		},
	})
	return h
}

func (h *epochHarness) kinds() map[EventKind]int {
	out := map[EventKind]int{}
	for _, ev := range h.events {
		out[ev.Kind]++
	}
	return out
}

const epochTestPeriod = 25 * sim.Millisecond

func TestEpochQuorumToleratesAckSuppression(t *testing.T) {
	h := newEpochHarness(t, 1)
	// One Byzantine member refuses to acknowledge prepares; with n=6,
	// f=1 the quorum is 5 and reconfiguration must still commit.
	h.sys.SetBehavior(3, &Behavior{SuppressEpochAcks: true})
	h.sys.ScheduleReconfig(3*epochTestPeriod, member.Delta{Join: []network.NodeID{6}})
	h.sys.Start()
	h.k.Run(20 * epochTestPeriod)
	k := h.kinds()
	if k[EpochCommitted] != 1 || k[EpochActivated] != 1 {
		t.Fatalf("reconfig did not complete under ack suppression: %v", k)
	}
	if k[EpochAck] != 5 {
		t.Errorf("expected exactly 5 acks (suppressor silent), got %d", k[EpochAck])
	}
	if !h.sys.IsMember(6) {
		t.Error("joiner not active after quorum commit")
	}
}

func TestEpochRejectsIllegalProposal(t *testing.T) {
	h := newEpochHarness(t, 1)
	// Retiring a non-member is rejected at propose time; a later legal
	// delta still goes through (the queue drains past rejections).
	h.sys.ScheduleReconfig(2*epochTestPeriod, member.Delta{Retire: []network.NodeID{7}})
	h.sys.ScheduleReconfig(3*epochTestPeriod, member.Delta{Join: []network.NodeID{6}})
	h.sys.Start()
	h.k.Run(20 * epochTestPeriod)
	k := h.kinds()
	if k[EpochRejected] != 1 {
		t.Fatalf("illegal proposal not rejected: %v", k)
	}
	if k[EpochActivated] != 1 || !h.sys.IsMember(6) {
		t.Fatalf("legal proposal after a rejection did not activate: %v", k)
	}
}

func TestEpochFramesInertAgainstForgeryAndReplay(t *testing.T) {
	h := newEpochHarness(t, 1)
	h.sys.ScheduleReconfig(3*epochTestPeriod, member.Delta{Join: []network.NodeID{6}})
	// Adversarial frames fired at a member mid-run: node-signed (forged)
	// records, bit-flipped commits, and replays of the genesis record.
	h.k.At(5*epochTestPeriod, func() {
		nd := h.sys.Node(2)
		forged := member.Genesis([]network.NodeID{0, 1}).Encode()
		forged = append(forged, h.reg.Seal(4, forged).Sig...) // node key, not operator
		nd.onEpochFrame(epochPayload(epochPhaseCommit, forged), nil)
		replay := member.Seal(h.reg, member.Genesis([]network.NodeID{0, 1, 2, 3, 4, 5}))
		nd.onEpochFrame(epochPayload(epochPhasePrepare, replay), nil)
		nd.onEpochFrame([]byte{msgMember}, nil)
		nd.onEpochFrame([]byte{msgMember, epochPhaseCommit, 0xff, 0x01}, nil)
	})
	h.sys.Start()
	h.k.Run(20 * epochTestPeriod)
	// The only epoch that exists is the legitimate join; node 2 sits on
	// it like everyone else.
	if got := h.sys.EpochOf(2); got != 1 {
		t.Fatalf("node 2 on epoch %d after adversarial frames, want 1", got)
	}
	if key, ok := h.sys.Converged(plan.NewFaultSet()); !ok || key == "" {
		t.Fatalf("members did not converge: %q %v", key, ok)
	}
}

func TestEpochRetireTearsDownWatchdogsAndSchedules(t *testing.T) {
	h := newEpochHarness(t, 1)
	h.sys.ScheduleReconfig(3*epochTestPeriod, member.Delta{Retire: []network.NodeID{5}})
	h.sys.Start()
	var activatedAt sim.Time
	h.k.Run(30 * epochTestPeriod)
	for _, ev := range h.events {
		if ev.Kind == EpochActivated {
			activatedAt = ev.At
		}
	}
	if activatedAt == 0 {
		t.Fatal("retire epoch never activated")
	}
	if h.sys.IsMember(5) {
		t.Fatal("slot 5 still a member")
	}
	if n := h.sys.WatchdogCount(5); n != 0 {
		t.Errorf("retired slot 5 holds %d armed watchdogs", n)
	}
	if !h.net.IsDown(5) {
		t.Error("retired slot 5 still up on the transport")
	}
	// The survivors keep running cleanly (their own watchdogs re-armed
	// under the new plan).
	for _, id := range []network.NodeID{0, 1, 2, 3, 4} {
		if !h.sys.IsMember(id) {
			t.Errorf("survivor %d lost membership", id)
		}
	}
	if key, ok := h.sys.Converged(plan.NewFaultSet()); !ok || key == "" {
		t.Fatalf("survivors did not converge: %q %v", key, ok)
	}
}

// TestEpochChurnStreamDeterministic pins the event stream of a churn
// run: join, replace and retire epochs with a crash in between, rendered
// through Event.String, is byte-identical across two runs.
func TestEpochChurnStreamDeterministic(t *testing.T) {
	render := func() string {
		h := newEpochHarness(t, 5)
		h.sys.ScheduleReconfig(3*epochTestPeriod, member.Delta{Join: []network.NodeID{6}})
		h.k.At(8*epochTestPeriod+sim.Millisecond, func() { h.sys.Crash(1) })
		h.sys.ScheduleReconfig(12*epochTestPeriod, member.Delta{Join: []network.NodeID{7}, Retire: []network.NodeID{1}})
		h.sys.ScheduleReconfig(20*epochTestPeriod, member.Delta{Retire: []network.NodeID{5}})
		h.sys.Start()
		h.k.Run(30 * epochTestPeriod)
		if k := h.kinds(); k[EpochActivated] != 3 || k[EvidenceAccepted] == 0 || k[ModeSwitch] == 0 {
			t.Fatalf("churn run lacks the steps the pin is about: %v", k)
		}
		var b strings.Builder
		for _, ev := range h.events {
			b.WriteString(ev.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("churn event stream differs across identical runs:\n%s\n---\n%s", a, b)
	}
}
