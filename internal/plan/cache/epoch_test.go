package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// epochFixture is the standard churn deployment: chain workload on an
// 8-slot full mesh, f=1.
func epochFixture() (*Engine, *network.Topology, plan.Options) {
	g := chainWorkload()
	topo := network.FullMesh(8, testBW, testProp)
	opts := plan.DefaultOptions(1, 500*sim.Millisecond)
	return NewEngine(g, topo, opts, nil), topo, opts
}

func TestEpochViewAllMembersMatchesEngine(t *testing.T) {
	eng, topo, _ := epochFixture()
	all := make([]network.NodeID, topo.N)
	for i := range all {
		all[i] = network.NodeID(i)
	}
	sv, err := eng.View(all).BuildStrategy()
	if err != nil {
		t.Fatalf("view strategy: %v", err)
	}
	se, err := eng.BuildStrategy()
	if err != nil {
		t.Fatalf("engine strategy: %v", err)
	}
	if renderStrategy(sv) != renderStrategy(se) {
		t.Fatal("all-member epoch view strategy differs from the plain engine strategy")
	}
}

// churnSequence derives a legal join/retire/replace sequence over an
// 8-slot universe from a random source, starting from members {0..5}
// and never dropping below 5 members (the mode must stay schedulable).
// It returns the membership after each of `steps` events.
func churnSequence(rng *rand.Rand, steps int) [][]network.NodeID {
	const slots = 8
	members := map[network.NodeID]bool{}
	for s := 0; s < 6; s++ {
		members[network.NodeID(s)] = true
	}
	var out [][]network.NodeID
	for step := 0; step < steps; step++ {
		var dormant, active []network.NodeID
		for s := 0; s < slots; s++ {
			if members[network.NodeID(s)] {
				active = append(active, network.NodeID(s))
			} else {
				dormant = append(dormant, network.NodeID(s))
			}
		}
		switch ev := rng.Intn(3); {
		case ev == 0 && len(dormant) > 0: // join
			members[dormant[rng.Intn(len(dormant))]] = true
		case ev == 1 && len(active) > 5: // retire
			delete(members, active[rng.Intn(len(active))])
		case ev == 2 && len(dormant) > 0 && len(active) > 4: // replace
			members[dormant[rng.Intn(len(dormant))]] = true
			delete(members, active[rng.Intn(len(active))])
		}
		var cur []network.NodeID
		for s := 0; s < slots; s++ {
			if members[network.NodeID(s)] {
				cur = append(cur, network.NodeID(s))
			}
		}
		out = append(out, cur)
	}
	return out
}

// TestEpochViewSequenceMatchesScratch is the reconfiguration soundness
// property (testing/quick): for any legal join/retire/replace sequence,
// every intermediate epoch's plans are byte-identical to planning that
// membership from scratch on a cold engine, and the per-epoch strategy
// stays feasible (the recovery bound holds) at every step. The shared-
// cache engine walks the sequence warm (delta-repaired from predecessor
// epochs); the reference engine starts cold per step.
func TestEpochViewSequenceMatchesScratch(t *testing.T) {
	g := chainWorkload()
	topo := network.FullMesh(8, testBW, testProp)
	opts := plan.DefaultOptions(1, 500*sim.Millisecond)
	shared := NewEngine(g, topo, opts, nil)

	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for step, cur := range churnSequence(rng, 4) {
			warm := shared.View(cur)
			scratch := NewEngine(g, topo, opts, nil).View(cur)
			wp, err := warm.PlanFor(plan.NewFaultSet())
			if err != nil {
				t.Errorf("seed %d step %d: warm plan: %v", seed, step, err)
				return false
			}
			sp, err := scratch.PlanFor(plan.NewFaultSet())
			if err != nil {
				t.Errorf("seed %d step %d: scratch plan: %v", seed, step, err)
				return false
			}
			if renderPlan(wp) != renderPlan(sp) {
				t.Errorf("seed %d step %d members %v: warm epoch plan differs from scratch:\nwarm:    %s\nscratch: %s",
					seed, step, cur, renderPlan(wp), renderPlan(sp))
				return false
			}
			ws, err := warm.BuildStrategy()
			if err != nil {
				t.Errorf("seed %d step %d: warm strategy: %v", seed, step, err)
				return false
			}
			ss, err := scratch.BuildStrategy()
			if err != nil {
				t.Errorf("seed %d step %d: scratch strategy: %v", seed, step, err)
				return false
			}
			if renderStrategy(ws) != renderStrategy(ss) {
				t.Errorf("seed %d step %d members %v: warm epoch strategy differs from scratch", seed, step, cur)
				return false
			}
			if !ws.RFeasible() {
				t.Errorf("seed %d step %d members %v: intermediate epoch infeasible: R needed %v > requested %v",
					seed, step, cur, ws.RNeeded, ws.Opts.R)
				return false
			}
		}
		return true
	}
	max := 5
	if testing.Short() {
		max = 2
	}
	if err := quick.Check(property, &quick.Config{MaxCount: max}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochViewWarmChurnReplansNothing pins the warm-churn acceptance
// claim: replaying a reconfiguration sequence against an already-churned
// shared cache synthesizes zero new plans — every epoch resolves by
// exact or symmetry lookup.
func TestEpochViewWarmChurnReplansNothing(t *testing.T) {
	g := chainWorkload()
	topo := network.FullMesh(8, testBW, testProp)
	opts := plan.DefaultOptions(1, 500*sim.Millisecond)
	c := New()
	sequence := [][]network.NodeID{
		{0, 1, 2, 3, 4, 5},
		{0, 1, 2, 3, 4, 5, 6}, // join 6
		{0, 1, 2, 3, 4, 6},    // retire 5
		{0, 1, 2, 3, 4, 6, 7}, // join 7
		{0, 1, 2, 3, 4, 7},    // retire 6 (completing a replace)
	}
	churn := func() *Engine {
		eng := NewEngine(g, topo, opts, c)
		for _, members := range sequence {
			if _, err := eng.View(members).BuildStrategy(); err != nil {
				t.Fatalf("members %v: %v", members, err)
			}
		}
		return eng
	}
	cold := churn()
	if cold.Stats().Misses == 0 {
		t.Fatal("cold churn synthesized nothing; the warm assertion below would be vacuous")
	}
	warm := churn()
	if st := warm.Stats(); st.Misses != 0 {
		t.Fatalf("warm churn replay synthesized %d plan(s) (delta=%d full=%d); want pure lookups",
			st.Misses, st.DeltaBuilds, st.FullBuilds)
	}
}

// TestEpochViewResolveIgnoresDormantConvictions: the strategy an epoch
// view builds maps a fault set to its plan with convictions of dormant
// slots ignored (every plan already excludes them), so a dormant
// conviction never takes a member fault's place in PlanFor's F-trim,
// wherever the dormant slot sorts.
func TestEpochViewResolveIgnoresDormantConvictions(t *testing.T) {
	for _, c := range []struct {
		name            string
		slots           int
		members, faults []network.NodeID
		want            string // the plan's key: dormant slots plus member faults
	}{
		{"none", 8, []network.NodeID{0, 1, 2, 3, 4, 5}, nil, "6,7"},
		{"dormant", 8, []network.NodeID{0, 1, 2, 3, 4, 5}, []network.NodeID{6}, "6,7"},
		{"member below dormant", 8, []network.NodeID{0, 1, 2, 3, 4, 5}, []network.NodeID{2, 6}, "2,6,7"},
		{"dormant below member", 6, []network.NodeID{1, 2, 3, 4, 5}, []network.NodeID{0, 3}, "0,3"},
	} {
		topo := network.FullMesh(c.slots, testBW, testProp)
		eng := NewEngine(chainWorkload(), topo, plan.DefaultOptions(1, 500*sim.Millisecond), nil)
		s, err := eng.View(c.members).BuildStrategy()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if p := s.PlanFor(plan.NewFaultSet(c.faults...)); p.Key() != c.want {
			t.Errorf("%s: faults %v resolved to %v, want the plan keyed %q", c.name, c.faults, p.Key(), c.want)
		}
	}
}
