package adversary

import (
	"testing"

	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

func newSystem(t *testing.T, seed uint64) *core.System {
	t.Helper()
	s, err := core.NewSystem(core.Config{
		Seed:     seed,
		Workload: flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
		Topology: network.FullMesh(6, 20_000_000, 50*sim.Microsecond),
		PlanOpts: plan.DefaultOptions(1, 500*sim.Millisecond),
		Horizon:  30,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCrashAttack(t *testing.T) {
	s := newSystem(t, 1)
	victim := s.Strategy.Plans[""].Assign["c1#0"]
	Crash(victim, 3*s.Cfg.Workload.Period).Install(s)
	rep := s.Run()
	if len(rep.SwitchTimes) == 0 {
		t.Error("crash attack caused no mode change")
	}
	if rep.WrongValues != 0 {
		t.Error("crash should not corrupt values")
	}
}

func TestCorruptTaskAttack(t *testing.T) {
	s := newSystem(t, 2)
	victim := s.Strategy.Plans[""].Assign["c1#0"]
	CorruptTask(victim, "c1", 3*s.Cfg.Workload.Period).Install(s)
	rep := s.Run()
	if rep.EvidenceByKind[evidence.KindWrongOutput] == 0 {
		t.Error("corruption produced no wrong-output proof")
	}
	if rep.WrongValues != 0 {
		t.Error("intermediate-task corruption should be masked by audited input choice")
	}
}

func TestEquivocateAttack(t *testing.T) {
	s := newSystem(t, 3)
	victim := s.Strategy.Plans[""].Assign["c1#0"]
	Equivocate(victim, "c1", 3*s.Cfg.Workload.Period).Install(s)
	rep := s.Run()
	// Equivocation on a re-executable task is caught as wrong-output
	// (one fork must disagree with re-execution) or as equivocation.
	if rep.EvidenceByKind[evidence.KindWrongOutput]+
		rep.EvidenceByKind[evidence.KindEquivocation] == 0 {
		t.Errorf("equivocation undetected: %v", rep.EvidenceByKind)
	}
}

func TestOmitAttack(t *testing.T) {
	s := newSystem(t, 4)
	victim := s.Strategy.Plans[""].Assign["c1#0"]
	Omit(victim, "c1", 3*s.Cfg.Workload.Period).Install(s)
	rep := s.Run()
	if rep.EvidenceByKind[evidence.KindPathAccusation] == 0 {
		t.Error("omission produced no accusations")
	}
	if len(rep.SwitchTimes) == 0 {
		t.Error("omission not attributed")
	}
}

func TestLieAboutSendTimeAttack(t *testing.T) {
	s := newSystem(t, 5)
	victim := s.Strategy.Plans[""].Assign["c1#0"]
	LieAboutSendTime(victim, "c1", 10*sim.Millisecond, 3*s.Cfg.Workload.Period).Install(s)
	rep := s.Run()
	if rep.EvidenceByKind[evidence.KindTiming] == 0 {
		t.Error("timestamp lie produced no timing proof")
	}
}

func TestFloodBogusAttack(t *testing.T) {
	s := newSystem(t, 6)
	FloodBogus(0, 4, 3*s.Cfg.Workload.Period).Install(s)
	rep := s.Run()
	if rep.EvidenceByKind[evidence.KindBogus] == 0 {
		t.Error("bogus flood produced no endorsement proof")
	}
	if rep.WrongValues != 0 || rep.MissedPeriods != 0 {
		t.Error("flood disturbed outputs")
	}
}

// TestAttackConstructorsKeepAtAndApply: every constructor returns an
// Attack due at the requested time with a behavior to install.
func TestAttackConstructorsKeepAtAndApply(t *testing.T) {
	const at = 7 * sim.Millisecond
	for i, a := range []Attack{
		Crash(1, at), CorruptTask(1, "t", at), CorruptEverything(1, at),
		Equivocate(1, "t", at), Omit(1, "t", at), Delay(1, "t", 5, at),
		LieAboutSendTime(1, "t", 5, at), FloodBogus(1, 2, at), SkipActuation(1, at),
	} {
		if a.At != at {
			t.Errorf("attack %d: At = %v, want %v", i, a.At, at)
		}
		if a.Apply == nil {
			t.Errorf("attack %d: nil Apply", i)
		}
	}
}
