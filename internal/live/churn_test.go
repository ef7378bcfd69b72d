package live

import (
	"runtime"
	"testing"

	btrruntime "btr/internal/runtime"

	"btr/internal/flow"
	"btr/internal/member"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// churnConfig is liveConfig over an 8-slot universe with slots 0..5
// active at genesis — the live churn fixture. The generous period keeps
// it robust under -race on slow hosts (see liveConfig).
func churnConfig(horizon uint64) Config {
	opts := plan.DefaultOptions(1, 5*sim.Second)
	opts.WatchdogMargin = 100 * sim.Millisecond
	return Config{
		Seed:              1,
		Workload:          flow.Chain(3, 300*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
		Topology:          network.FullMesh(8, 20_000_000, 50*sim.Microsecond),
		PlanOpts:          opts,
		Members:           []network.NodeID{0, 1, 2, 3, 4, 5},
		Horizon:           horizon,
		EvidenceRateLimit: 6,
	}
}

// TestLiveChurnJoinRetireWiringAndWatchdogsTearDown is the live churn
// stress: a join and a retire on the wall clock, run under -race in CI.
// It asserts the network's wiring follows the membership — links toward
// the joiner, none left touching the retired slot — that the retired
// node holds no armed watchdog timers, and (via waitNoLeak) that the
// executor goroutine does not outlive the deployment.
func TestLiveChurnJoinRetireWiringAndWatchdogsTearDown(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock churn soak in -short mode")
	}
	before := runtime.NumGoroutine()
	d, err := New(churnConfig(14))
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	period := d.Cfg.Workload.Period

	// Genesis wiring: only member-member links, FullMesh(6)'s 15.
	if got := len(d.Net.Topology().Links); got != 15 {
		t.Fatalf("genesis wiring has %d links, want 15", got)
	}
	d.Reconfigure(3*period, member.Delta{Join: []network.NodeID{6}})
	d.Reconfigure(8*period, member.Delta{Retire: []network.NodeID{0}})
	rep := d.Run()

	if rep.MissedPeriods != 0 || rep.WrongValues != 0 {
		t.Errorf("churn-only live run not clean: missed=%d wrong=%d", rep.MissedPeriods, rep.WrongValues)
	}
	if len(rep.Epochs) != 2 {
		t.Fatalf("recorded %d epochs, want 2: %+v", len(rep.Epochs), rep.Epochs)
	}
	for _, e := range rep.Epochs {
		if e.ActivatedAt == 0 {
			t.Fatalf("epoch %d never activated: %+v", e.Num, e)
		}
	}
	// Final membership {1..6}: again a 6-member mesh of 15 links, and
	// none left touching the retired slot.
	final := d.Net.Topology()
	if got := len(final.Links); got != 15 {
		t.Errorf("final wiring has %d links, want 15", got)
	}
	for _, l := range final.Links {
		if l.A == 0 || l.B == 0 {
			t.Errorf("final wiring still links retired slot 0: %d-%d", l.A, l.B)
		}
	}
	if d.Runtime.IsMember(0) || !d.Runtime.IsMember(6) {
		t.Error("final membership wrong")
	}
	if n := d.Runtime.WatchdogCount(0); n != 0 {
		t.Errorf("retired slot 0 still holds %d armed watchdog timers", n)
	}
	if key, ok := d.Runtime.Converged(plan.NewFaultSet()); !ok || key == "" {
		t.Errorf("live members did not converge after churn: %q %v", key, ok)
	}
	waitNoLeak(t, before)
}

// TestLiveChurnWithFaultRecoversWithinEpochBound overlaps a crash fault
// with a replace epoch: the live deployment must keep recovery within
// the worst epoch bound (strictly asserted only without -race, like the
// other wall-clock bounds) and shut down leak-free.
func TestLiveChurnWithFaultRecoversWithinEpochBound(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock churn soak in -short mode")
	}
	before := runtime.NumGoroutine()
	d, err := New(churnConfig(16))
	if err != nil {
		t.Fatalf("live.New: %v", err)
	}
	period := d.Cfg.Workload.Period
	victim := FirstSinkNode(d)
	d.InjectAt(4*period, func(rt *btrruntime.System) { rt.Crash(victim) })
	d.Reconfigure(7*period, member.Delta{Join: []network.NodeID{6}, Retire: []network.NodeID{victim}})
	rep := d.Run()

	if len(rep.Epochs) != 1 || rep.Epochs[0].ActivatedAt == 0 {
		t.Fatalf("replace epoch did not activate: %+v", rep.Epochs)
	}
	recs := rep.Recoveries()
	if len(recs) == 0 {
		t.Fatal("crash caused no measured recovery (fault not visible?)")
	}
	if !raceDetectorEnabled {
		if max := rep.MaxRecovery(); max > rep.MaxEpochR() {
			t.Errorf("recovery %v exceeded the worst epoch bound %v", max, rep.MaxEpochR())
		}
	}
	// The crashed victim's own view froze at the crash; the operator's
	// authoritative membership is what must exclude it.
	for _, m := range d.Runtime.Members() {
		if m == victim {
			t.Error("crashed victim still in the authoritative membership after replace")
		}
	}
	if !d.Runtime.IsMember(6) {
		t.Error("replacement joiner not active")
	}
	waitNoLeak(t, before)
}
