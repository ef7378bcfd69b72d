package member

import (
	"testing"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plan/cache"
	"btr/internal/sim"
)

func plannerFixture() (*Planner, *Log) {
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	p := NewPlanner(g, plan.DefaultOptions(1, 500*sim.Millisecond), cache.New())
	l, err := NewLog(network.FullMesh(8, 20_000_000, 50*sim.Microsecond),
		Genesis([]network.NodeID{0, 1, 2, 3, 4, 5}))
	if err != nil {
		panic(err)
	}
	return p, l
}

func TestPlannerForEpoch(t *testing.T) {
	p, l := plannerFixture()
	ep, err := p.ForEpoch(l.Current(), l.Wiring())
	if err != nil {
		t.Fatalf("genesis epoch: %v", err)
	}
	if got := plan.NewFaultSet(ep.Members...).Key(); got != "0,1,2,3,4,5" {
		t.Fatalf("members = %q, want 0,1,2,3,4,5", got)
	}
	if !ep.Strategy.RFeasible() {
		t.Fatalf("genesis epoch infeasible: R needed %v", ep.Strategy.RNeeded)
	}
	// The base plan places nothing on dormant slots.
	base := ep.Strategy.Plans[""]
	for id, node := range base.Assign {
		if node == 6 || node == 7 {
			t.Fatalf("replica %s placed on dormant slot %d", id, node)
		}
	}
	// Member fault resolution excludes the dormant slots too.
	fp := ep.Strategy.PlanFor(plan.NewFaultSet(3))
	if fp == nil {
		t.Fatal("member-fault lookup failed")
	}
	for id, node := range fp.Assign {
		if node == 3 || node == 6 || node == 7 {
			t.Fatalf("fault-mode replica %s placed on excluded slot %d", id, node)
		}
	}
}

func TestPlannerWarmChurnReplansNothing(t *testing.T) {
	shared := cache.New()
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	churn := func() *Planner {
		p := NewPlanner(g, plan.DefaultOptions(1, 500*sim.Millisecond), shared)
		l, err := NewLog(network.FullMesh(8, 20_000_000, 50*sim.Microsecond),
			Genesis([]network.NodeID{0, 1, 2, 3, 4, 5}))
		if err != nil {
			t.Fatal(err)
		}
		step := func(d Delta) {
			r, err := l.Propose(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(r.WithActivation(sim.Time(100 * l.NextNum()))); err != nil {
				t.Fatal(err)
			}
			if _, err := p.ForEpoch(l.Current(), l.Wiring()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.ForEpoch(l.Current(), l.Wiring()); err != nil {
			t.Fatal(err)
		}
		step(Delta{Join: []network.NodeID{6}})
		step(Delta{Retire: []network.NodeID{0}})
		step(Delta{Join: []network.NodeID{7}, Retire: []network.NodeID{1}})
		return p
	}
	cold := churn()
	if cold.Replans() == 0 {
		t.Fatal("cold churn synthesized nothing; warm assertion would be vacuous")
	}
	warm := churn()
	if n := warm.Replans(); n != 0 {
		t.Fatalf("warm churn replay synthesized %d plan(s); want 0", n)
	}
}
