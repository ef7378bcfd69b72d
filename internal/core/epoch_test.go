package core

import (
	"testing"

	"btr/internal/adversary"
	"btr/internal/flow"
	"btr/internal/member"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// epochConfig is the standard churn deployment: 3-task chain over an
// 8-slot full-mesh universe, slots 0..5 active at genesis, f=1.
func epochConfig(seed uint64, horizon uint64) Config {
	return Config{
		Seed:     seed,
		Workload: flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
		Topology: network.FullMesh(8, 20_000_000, 50*sim.Microsecond),
		PlanOpts: plan.DefaultOptions(1, 500*sim.Millisecond),
		Members:  []network.NodeID{0, 1, 2, 3, 4, 5},
		Horizon:  horizon,
	}
}

func TestEpochJoinRetireReplaceLifecycle(t *testing.T) {
	s, err := NewSystem(epochConfig(1, 40))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	period := s.Cfg.Workload.Period
	// Dormant slots start down and idle.
	if s.Runtime.IsMember(6) || s.Runtime.IsMember(7) {
		t.Fatal("dormant slots reported as members")
	}
	if !s.Net.IsDown(6) || !s.Net.IsDown(7) {
		t.Fatal("dormant slots not down on the transport")
	}
	s.Reconfigure(5*period, member.Delta{Join: []network.NodeID{6}})
	s.Reconfigure(15*period, member.Delta{Retire: []network.NodeID{0}})
	s.Reconfigure(25*period, member.Delta{Join: []network.NodeID{7}, Retire: []network.NodeID{1}})
	rep := s.Run()

	if rep.MissedPeriods != 0 || rep.WrongValues != 0 {
		t.Errorf("churn-only run not clean: missed=%d wrong=%d", rep.MissedPeriods, rep.WrongValues)
	}
	if len(rep.Epochs) != 3 {
		t.Fatalf("recorded %d epochs, want 3: %+v", len(rep.Epochs), rep.Epochs)
	}
	for _, e := range rep.Epochs {
		if e.ActivatedAt == 0 {
			t.Fatalf("epoch %d never activated: %+v", e.Num, e)
		}
		if e.CommittedAt < e.ProposedAt || e.ActivatedAt <= e.CommittedAt {
			t.Errorf("epoch %d lifecycle out of order: %+v", e.Num, e)
		}
		// Quorum: n-f acks with n the outgoing membership size.
		if e.Acks < 5 {
			t.Errorf("epoch %d committed on %d acks", e.Num, e.Acks)
		}
		if e.R <= 0 {
			t.Errorf("epoch %d carries no recovery bound", e.Num)
		}
		// The switch completes within the conservative window the
		// operator schedules: Delta' rounded up to a boundary.
		if lat := e.SwitchLatency(); lat <= 0 || lat > e.R {
			t.Errorf("epoch %d switch latency %v outside (0, R=%v]", e.Num, lat, e.R)
		}
	}
	// Final membership: {2,3,4,5,6,7}.
	for id, want := range map[network.NodeID]bool{
		0: false, 1: false, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true,
	} {
		if got := s.Runtime.IsMember(id); got != want {
			t.Errorf("final membership of %d = %v, want %v", id, got, want)
		}
		if got := s.Runtime.EpochOf(id); got != 3 {
			t.Errorf("node %d ended on epoch %d, want 3", id, got)
		}
	}
	// Retired slots: transport down, no armed watchdogs.
	for _, id := range []network.NodeID{0, 1} {
		if !s.Net.IsDown(id) {
			t.Errorf("retired slot %d still up on the transport", id)
		}
		if n := s.Runtime.WatchdogCount(id); n != 0 {
			t.Errorf("retired slot %d still holds %d armed watchdogs", id, n)
		}
	}
	// Every active member converged on the same plan.
	if key, ok := s.Runtime.Converged(plan.NewFaultSet()); !ok {
		t.Error("members did not converge after churn")
	} else if key == "" {
		t.Error("final epoch plan key empty (exclusions missing)")
	}
}

func TestEpochChurnDeterministic(t *testing.T) {
	run := func() []EpochRow {
		s, err := NewSystem(epochConfig(7, 30))
		if err != nil {
			t.Fatal(err)
		}
		period := s.Cfg.Workload.Period
		s.Reconfigure(4*period, member.Delta{Join: []network.NodeID{6}})
		s.Reconfigure(14*period, member.Delta{Join: []network.NodeID{7}, Retire: []network.NodeID{2}})
		return s.Run().Epochs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("epoch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("epoch row %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestEpochRecoveryWithinBoundAcrossBoundary injects the externally
// visible commission fault right next to an epoch switch and checks the
// measured recovery against the epoch-aware bound — the C6 claim in
// miniature.
func TestEpochRecoveryWithinBoundAcrossBoundary(t *testing.T) {
	s, err := NewSystem(epochConfig(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	period := s.Cfg.Workload.Period
	s.Reconfigure(6*period, member.Delta{Join: []network.NodeID{6}})
	victim := s.Strategy.Plans[""].FirstSinkHost()
	at := 8 * period // lands in the middle of the switch window
	adversary.CorruptTask(victim, s.Cfg.Workload.Sinks()[0], at).Install(s)
	rep := s.Run()

	recs := rep.Recoveries()
	if len(recs) == 0 {
		t.Fatal("no recovery measured for the injected fault")
	}
	for _, rec := range recs {
		bound := rep.RBoundFor(rec.FaultAt, rec.FaultAt+rec.Duration())
		if rec.Duration() > bound {
			t.Errorf("recovery %v exceeded the epoch-aware bound %v", rec.Duration(), bound)
		}
	}
	if len(rep.Epochs) != 1 || rep.Epochs[0].ActivatedAt == 0 {
		t.Fatalf("epoch did not activate alongside the fault: %+v", rep.Epochs)
	}
}

// TestEpochRetireConvictedNode is the repair story: convict a faulty
// node, then retire it; the system must return to clean output and the
// joiner must converge with everyone despite never seeing the original
// evidence (the retired slot is excluded by the epoch itself).
func TestEpochRetireConvictedNode(t *testing.T) {
	s, err := NewSystem(epochConfig(5, 44))
	if err != nil {
		t.Fatal(err)
	}
	period := s.Cfg.Workload.Period
	victim := s.Strategy.Plans[""].FirstSinkHost()
	adversary.CorruptEverything(victim, 5*period).Install(s)
	// After conviction settles, replace the faulty node with slot 6.
	s.Reconfigure(20*period, member.Delta{Join: []network.NodeID{6}, Retire: []network.NodeID{victim}})
	rep := s.Run()

	if !s.Runtime.IsMember(6) || s.Runtime.IsMember(victim) {
		t.Fatal("replacement epoch did not apply")
	}
	if key, ok := s.Runtime.Converged(plan.NewFaultSet()); !ok || key == "" {
		t.Errorf("members (joiner included) did not converge after repairing via churn: %q %v", key, ok)
	}
	// The tail of the run (well after repair) must be clean.
	for _, iv := range rep.BadIntervals() {
		if iv.End > 30*period {
			t.Errorf("bad output after churn repair: %v", iv)
		}
	}
}

// TestEpochLifecycleFoldedFromEvents pins the fold: for a script with a
// proposal rejected outright (retiring a non-member) and one rejected at
// commit (the remaining two members cannot host three source replicas),
// Report.Epochs equals, field for field, the rows the runtime's epoch
// operator recorded for the same script before the rows became a fold
// over epoch events. The first rejection appends a row of its own; the
// second sets Err on the open proposal's row.
func TestEpochLifecycleFoldedFromEvents(t *testing.T) {
	s, err := NewSystem(epochConfig(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	period := s.Cfg.Workload.Period
	s.Reconfigure(3*period, member.Delta{Retire: []network.NodeID{7}})
	s.Reconfigure(4*period, member.Delta{Join: []network.NodeID{6}})
	s.Reconfigure(14*period, member.Delta{Retire: []network.NodeID{0, 1, 2, 3, 6}})
	s.Reconfigure(24*period, member.Delta{Join: []network.NodeID{7}, Retire: []network.NodeID{2}})
	got := s.Run().Epochs
	want := []EpochRow{
		{Num: 1, ProposedAt: 75000, Err: "member: retire of 7: not a member"},
		{Num: 1, Members: "{0,1,2,3,4,5,6}", ProposedAt: 100000, CommittedAt: 100000, ActivatedAt: 124999, Acks: 5, R: 103048},
		{Num: 2, ProposedAt: 350000, Acks: 6, Err: "member: epoch 2 unplannable: plan: epoch mode {} over members [4 5]: all sinks shed and still unschedulable: plan: 3 replicas of \"c0\" need distinct nodes but only 2 are healthy"},
		{Num: 2, Members: "{0,1,3,4,5,6,7}", ProposedAt: 600000, CommittedAt: 600000, ActivatedAt: 624999, Acks: 6, R: 103048},
	}
	if len(got) != len(want) {
		t.Fatalf("folded %d epoch rows, want %d:\n%+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("epoch row %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}
