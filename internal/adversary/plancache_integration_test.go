package adversary

import (
	"testing"

	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plan/cache"
	"btr/internal/sim"
)

// cachedChainConfig is the E8-style chain deployment, optionally backed
// by a plan cache.
func cachedChainConfig(c *cache.Cache) core.Config {
	return core.Config{
		Seed:      1,
		Workload:  flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
		Topology:  network.FullMesh(6, 20_000_000, 50*sim.Microsecond),
		PlanOpts:  plan.DefaultOptions(1, 500*sim.Millisecond),
		Horizon:   40,
		PlanCache: c,
	}
}

// TestPlanCacheBackedRecovery runs the same fault scenario with and
// without the incremental plan engine: both deployments must recover
// within their strategy's bound, the engine-backed runtime must consult
// the cache during failover, and a second cache-backed deployment must
// reuse the warm cache instead of re-planning.
func TestPlanCacheBackedRecovery(t *testing.T) {
	var lastEngine *cache.Engine
	run := func(c *cache.Cache) *core.Report {
		sys, err := core.NewSystem(cachedChainConfig(c))
		if err != nil {
			t.Fatalf("NewSystem: %v", err)
		}
		lastEngine = sys.PlanEngine
		period := sys.Cfg.Workload.Period
		// Corrupt the first-actuating sink replica: the only single
		// victim whose corruption is externally visible.
		base := sys.Strategy.Plans[""]
		victim := network.NodeID(-1)
		var victimFinish sim.Time
		for _, id := range base.Aug.TaskIDs() {
			if logical, _ := plan.SplitReplica(id); logical != "c2" {
				continue
			}
			fin := base.Table.Finish(id)
			node := base.Assign[id]
			if victim == -1 || fin < victimFinish || (fin == victimFinish && node < victim) {
				victim, victimFinish = node, fin
			}
		}
		CorruptTask(victim, "c2", 5*period).Install(sys)
		return sys.Run()
	}

	plain := run(nil)
	if plain.MaxRecovery() == 0 || plain.MaxRecovery() > plain.RNeeded {
		t.Fatalf("plain run: recovery %v outside (0, %v]", plain.MaxRecovery(), plain.RNeeded)
	}

	c := cache.New()
	cached := run(c)
	if cached.MaxRecovery() == 0 || cached.MaxRecovery() > cached.RNeeded {
		t.Fatalf("cached run: recovery %v outside (0, %v]", cached.MaxRecovery(), cached.RNeeded)
	}
	if cached.RNeeded != plain.RNeeded {
		// Both derivations plan the same lattice; the strategy-wide
		// bound is dominated by topology constants, but log if they
		// diverge so a regression is visible.
		t.Logf("note: RNeeded differs: plain %v vs cached %v", plain.RNeeded, cached.RNeeded)
	}
	if c.Len() == 0 {
		t.Fatal("cache empty after an engine-backed deployment")
	}
	if st := lastEngine.Stats(); st.ExactHits == 0 {
		t.Fatalf("failover never consulted the cache: %+v", st)
	}

	// Second deployment on the warm shared cache: must not synthesize
	// anything new and must behave identically to the first cached run.
	entries := c.Len()
	cached2 := run(c)
	if c.Len() != entries {
		t.Errorf("warm deployment grew the cache: %d -> %d entries", entries, c.Len())
	}
	if st := lastEngine.Stats(); st.Misses != 0 || st.ExactHits == 0 {
		t.Errorf("warm deployment synthesized instead of reusing: %+v", st)
	}
	if cached2.MaxRecovery() != cached.MaxRecovery() {
		t.Errorf("warm deployment recovery %v != first cached run %v",
			cached2.MaxRecovery(), cached.MaxRecovery())
	}
}
