package live

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"btr/internal/adversary"
	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// liveConfig is the standard small live deployment: a 3-task chain on a
// 6-node full mesh. The generous 300ms period and 100ms watchdog margin
// keep the test robust under the race detector on slow 1-core CI hosts,
// where a single ed25519 operation costs ~1ms and the shared executor can
// lag the wall clock by tens of milliseconds at period start — recovery
// correctness does not depend on the period, and the bound R scales with
// it. The evidence rate limit is lowered for the same reason: it bounds
// the per-period crypto backlog a flood can enqueue on the executor.
func liveConfig(horizon uint64) Config {
	opts := plan.DefaultOptions(1, 5*sim.Second)
	opts.WatchdogMargin = 100 * sim.Millisecond
	return Config{
		Seed:              1,
		Workload:          flow.Chain(3, 300*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
		Topology:          network.FullMesh(6, 20_000_000, 50*sim.Microsecond),
		PlanOpts:          opts,
		Horizon:           horizon,
		EvidenceRateLimit: 6,
	}
}

func TestLiveDeploymentFaultFreeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock soak in -short mode")
	}
	before := runtime.NumGoroutine()
	d, err := New(liveConfig(6))
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	rep := d.Run()
	if rep.MissedPeriods != 0 || rep.WrongValues != 0 {
		t.Errorf("fault-free live run not clean: missed=%d wrong=%d", rep.MissedPeriods, rep.WrongValues)
	}
	if rep.Actuations == 0 {
		t.Error("no actuations observed")
	}
	if got := rep.MaxRecovery(); got != 0 {
		t.Errorf("fault-free run reported recovery %v", got)
	}
	waitNoLeak(t, before)
}

func TestLiveDeploymentRecoversWithinBoundOnWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock soak in -short mode")
	}
	before := runtime.NumGoroutine()
	d, err := New(liveConfig(12))
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	period := d.Cfg.Workload.Period
	// Corrupt every output of the first-actuating sink host: the
	// externally visible commission fault (the E1/C2 victim choice).
	victim := FirstSinkNode(d)
	adversary.CorruptEverything(victim, 3*period).Install(d)
	rep := d.Run()

	if len(rep.FaultTimes) != 1 {
		t.Fatalf("fault not recorded: %v", rep.FaultTimes)
	}
	if rep.EvidenceTotal() == 0 {
		t.Error("no evidence observed after commission fault")
	}
	if len(rep.SwitchTimes) == 0 {
		t.Error("no mode switch observed")
	}
	max := rep.MaxRecovery()
	if max == 0 {
		// The fault was externally visible by construction; zero recovery
		// would mean the monitor saw nothing.
		t.Error("commission fault on the first-actuating sink host produced no bad output")
	}
	// The system must actually recover: bad output must not extend to the
	// end of the run.
	if bad := rep.BadIntervals(); len(bad) > 0 && bad[len(bad)-1].End >= rep.Horizon {
		t.Errorf("never recovered: bad output extends to the horizon (%v)", bad)
	}
	if raceDetectorEnabled {
		// The race detector slows crypto ~10x, so the absolute wall-clock
		// bound is not meaningful here; the strict check runs in the
		// non-race suite and in the C5 perf rows.
		t.Logf("race build: recovery %v vs bound %v (not asserted)", max, rep.RNeeded)
	} else if !rep.WithinBound() {
		t.Errorf("wall-clock recovery %v exceeded bound R=%v", max, rep.RNeeded)
	}
	waitNoLeak(t, before)
}

// TestExecutorsAgreeOnVerdicts runs one Config through both executors
// core.Assemble serves — the simulation kernel (core.NewSystem) and the
// wall clock (New) — and requires the same verdicts: every node's fault
// set, the converged plan, the bad intervals and the recovery time. Both
// runs carry the same Network on the same modeled timeline, so the wall
// clock only paces it. Evidence and actuation totals are not compared:
// the live run dispatches one extra period past its horizon (the drain
// marker), which adds one period of both.
func TestExecutorsAgreeOnVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock soak in -short mode")
	}
	cfg := liveConfig(10)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatalf("core.NewSystem: %v", err)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	victim := FirstSinkNode(d)
	if v := VictimOf(sys.Strategy); v != victim {
		t.Fatalf("victims differ: sim %d, live %d", v, victim)
	}
	script := adversary.Script{{Behavior: "corrupt-all", Node: victim, At: 3 * cfg.Workload.Period}}
	for _, inj := range []adversary.Injector{sys, d} {
		if err := script.Install(inj, cfg.Workload.Period); err != nil {
			t.Fatal(err)
		}
	}
	simRep, liveRep := sys.Run(), d.Run()
	t.Logf("recovery: sim %v, live %v, R = %v", simRep.MaxRecovery(), liveRep.MaxRecovery(), simRep.RNeeded)

	for n := 0; n < cfg.Topology.N; n++ {
		id := network.NodeID(n)
		if s, l := sys.Runtime.FaultSetOf(id).Key(), d.Runtime.FaultSetOf(id).Key(); s != l {
			t.Errorf("node %d fault set: sim %q, live %q", n, s, l)
		}
	}
	exclude := plan.NewFaultSet(victim)
	simKey, simOK := sys.Runtime.Converged(exclude)
	liveKey, liveOK := d.Runtime.Converged(exclude)
	if !simOK || !liveOK || simKey != liveKey {
		t.Errorf("converged plan: sim %q (%v), live %q (%v)", simKey, simOK, liveKey, liveOK)
	}
	if rec := simRep.MaxRecovery(); rec == 0 || !simRep.WithinBound() {
		t.Errorf("simulated recovery %v against R = %v", rec, simRep.RNeeded)
	}
	if s, l := simRep.BadIntervals(), liveRep.BadIntervals(); !slices.Equal(s, l) {
		t.Errorf("bad intervals: sim %v, live %v", s, l)
	}
	if s, l := simRep.MaxRecovery(), liveRep.MaxRecovery(); s != l {
		t.Errorf("recovery: sim %v, live %v", s, l)
	}
	if !liveRep.WithinBound() {
		t.Errorf("wall-clock recovery %v exceeded bound R=%v", liveRep.MaxRecovery(), liveRep.RNeeded)
	}
}

func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutine leak after live shutdown: %d before, %d after", before, g)
	}
}
