package cache

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sched"
	"btr/internal/sim"
)

func chainWorkload() *flow.Graph {
	return flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
}

// largestC2 mirrors the largest topology in the C2 scaling family
// (internal/exp): full mesh, 12 nodes, f=2 — 79 fault sets, 3 orbits.
func largestC2() (*flow.Graph, *network.Topology, plan.Options) {
	return chainWorkload(),
		network.FullMesh(12, testBW, testProp),
		plan.DefaultOptions(2, 500*sim.Millisecond)
}

// renderStrategy renders every plan table of a strategy fully and
// deterministically: plans in key order, slots in node order, messages
// in edge order, plus transitions and derived bounds. Byte equality of
// two renderings means the strategies are operationally identical.
func renderStrategy(s *plan.Strategy) string {
	var b strings.Builder
	keys := make([]string, 0, len(s.Plans))
	for k := range s.Plans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(&b, "bounds detect=%v distribute=%v switch=%v delta=%v rneeded=%v\n",
		s.DetectBound, s.DistributeBound, s.SwitchBound, s.Delta, s.RNeeded)
	for _, k := range keys {
		p := s.Plans[k]
		fmt.Fprintf(&b, "plan %q shed=%v\n", k, p.ShedSinks)
		ids := p.Aug.TaskIDs()
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			// Ready: the last input window to arrive, local handoffs included.
			var ready sim.Time
			for _, w := range p.Table.Msgs {
				if w.Edge.To == id {
					ready = max(ready, w.Arrive)
				}
			}
			fmt.Fprintf(&b, "  task %s node=%d ready=%v finish=%v\n",
				id, p.Assign[id], ready, p.Table.Finish(id))
		}
		for n, slots := range p.Table.Slots {
			if len(slots) == 0 {
				continue
			}
			fmt.Fprintf(&b, "  node %d:", n)
			for _, sl := range slots {
				fmt.Fprintf(&b, " %s[%v,%v)", sl.Task, sl.Start, sl.End)
			}
			fmt.Fprintln(&b)
		}
		msgs := slices.Clone(p.Table.Msgs)
		slices.SortFunc(msgs, func(a, b sched.MsgWindow) int {
			if c := cmp.Compare(a.Edge.From, b.Edge.From); c != 0 {
				return c
			}
			return cmp.Compare(a.Edge.To, b.Edge.To)
		})
		for _, w := range msgs {
			fmt.Fprintf(&b, "  msg %s->%s %d->%d depart=%v arrive=%v\n",
				w.Edge.From, w.Edge.To, w.From, w.To, w.Depart, w.Arrive)
		}
		if tr, ok := s.Trans[k]; ok {
			fmt.Fprintf(&b, "  trans from=%q moved=%v state=%d bound=%v\n",
				tr.From, tr.Moved, tr.StateBytes, tr.Bound)
		}
	}
	return b.String()
}

// TestEngineWarmColdByteIdentical pins the acceptance criterion: the
// plan tables a warm cache returns are byte-identical to the ones the
// cold synthesis that populated it produced, and to a fresh engine with
// an empty cache. Caching memoizes, never alters.
func TestEngineWarmColdByteIdentical(t *testing.T) {
	g, topo, opts := largestC2()
	eng := NewEngine(g, topo, opts, nil)
	cold, err := eng.BuildStrategy()
	if err != nil {
		t.Fatalf("cold build: %v", err)
	}
	warm, err := eng.BuildStrategy()
	if err != nil {
		t.Fatalf("warm build: %v", err)
	}
	fresh, err := NewEngine(g, topo, opts, nil).BuildStrategy()
	if err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	rc, rw, rf := renderStrategy(cold), renderStrategy(warm), renderStrategy(fresh)
	if rc != rw {
		t.Errorf("warm strategy differs from the cold build that populated the cache")
	}
	if rc != rf {
		t.Errorf("cold engine output differs across engine instances")
	}
	st := eng.Stats()
	if st.SymmetryHits == 0 {
		t.Errorf("expected symmetry hits on a full mesh, got %+v", st)
	}
	if st.FullBuilds+st.DeltaBuilds >= uint64(len(cold.Plans)) {
		t.Errorf("engine synthesized %d+%d plans for %d fault sets; symmetry reduction ineffective",
			st.FullBuilds, st.DeltaBuilds, len(cold.Plans))
	}
}

// TestSharedCacheKeepsContextsApart: engines whose contexts differ only
// in link bandwidth, which fault keys and orbits cannot tell apart, share
// one cache and still each get the strategy a private cache gives.
func TestSharedCacheKeepsContextsApart(t *testing.T) {
	g, opts := chainWorkload(), plan.DefaultOptions(1, 500*sim.Millisecond)
	shared := New()
	for _, bw := range []int64{testBW, testBW / 4, testBW} {
		topo := network.FullMesh(6, bw, testProp)
		got, err := NewEngine(g, topo, opts, shared).BuildStrategy()
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEngine(g, topo, opts, nil).BuildStrategy()
		if err != nil {
			t.Fatal(err)
		}
		if renderStrategy(got) != renderStrategy(want) {
			t.Errorf("bandwidth %d: the shared cache served another context's plans", bw)
		}
	}
}

// TestEngineEquivalentToBuild compares the engine against plain
// plan.Build on several deployments: same feasibility, same plan count,
// same shed sets, and every engine plan passes the full validity checks
// (anti-affinity, schedule sanity, actuation deadlines).
func TestEngineEquivalentToBuild(t *testing.T) {
	cases := []struct {
		name string
		topo *network.Topology
		f    int
	}{
		{"mesh6-f1", network.FullMesh(6, testBW, testProp), 1},
		{"mesh8-f2", network.FullMesh(8, testBW, testProp), 2},
		{"ring8-f1", network.Ring(8, testBW, testProp), 1},
		{"dualbus6-f1", network.DualBus(6, testBW, testProp), 1},
		{"grid3x3-f1", network.Grid(3, 3, testBW, testProp), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := chainWorkload()
			opts := plan.DefaultOptions(tc.f, 500*sim.Millisecond)
			ref, refErr := plan.Build(g, tc.topo, opts)
			s, err := NewEngine(g, tc.topo, opts, nil).BuildStrategy()
			if (refErr == nil) != (err == nil) {
				t.Fatalf("feasibility differs: Build=%v engine=%v", refErr, err)
			}
			if refErr != nil {
				return
			}
			if len(s.Plans) != len(ref.Plans) {
				t.Fatalf("plan count %d != %d", len(s.Plans), len(ref.Plans))
			}
			for k, p := range s.Plans {
				rp := ref.Plans[k]
				if rp == nil {
					t.Fatalf("engine plan %q missing from Build", k)
				}
				if fmt.Sprint(p.ShedSinks) != fmt.Sprint(rp.ShedSinks) {
					t.Errorf("plan %q shed %v != %v", k, p.ShedSinks, rp.ShedSinks)
				}
				if err := plan.VerifyAssignment(p.Aug, p.Assign, p.Faults); err != nil {
					t.Errorf("plan %q: %v", k, err)
				}
				if err := p.Table.VerifySanity(p.Aug); err != nil {
					t.Errorf("plan %q: %v", k, err)
				}
				for _, sink := range p.Pruned.Sinks() {
					dl := p.Pruned.Tasks[sink].Deadline
					for _, id := range p.Aug.TaskIDs() {
						if logical, _ := plan.SplitReplica(id); logical != sink {
							continue
						}
						if f := p.Table.Finish(id); f > dl {
							t.Errorf("plan %q: replica %q misses actuation deadline (%v > %v)", k, id, f, dl)
						}
					}
				}
			}
		})
	}
}

// TestEngineConcurrentPlanFor hammers one shared engine from many
// goroutines (run under -race in CI) and checks every goroutine
// resolves every fault set to the same rendered plan as a serial
// reference — plan resolution is a pure function, so scheduling must
// not matter.
func TestEngineConcurrentPlanFor(t *testing.T) {
	g, topo, opts := largestC2()
	refEng := NewEngine(g, topo, opts, nil)
	sets := plan.EnumerateFaultSets(topo.N, opts.F)
	ref := make(map[string]string, len(sets))
	for _, fs := range sets {
		p, err := refEng.PlanFor(fs)
		if err != nil {
			t.Fatalf("reference plan %v: %v", fs, err)
		}
		ref[fs.Key()] = renderPlan(p)
	}

	eng := NewEngine(g, topo, opts, nil)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := sim.NewRNG(uint64(w)).Perm(len(sets))
			for _, i := range order {
				fs := sets[i]
				p, err := eng.PlanFor(fs)
				if err != nil {
					errs <- fmt.Errorf("worker %d: plan %v: %v", w, fs, err)
					return
				}
				if got := renderPlan(p); got != ref[fs.Key()] {
					errs <- fmt.Errorf("worker %d: plan %v differs from serial reference", w, fs)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func renderPlan(p *plan.Plan) string {
	var b strings.Builder
	ids := p.Aug.TaskIDs()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "%s@%d f=%v;", id, p.Assign[id], p.Table.Finish(id))
	}
	fmt.Fprintf(&b, "shed=%v", p.ShedSinks)
	return b.String()
}

// TestDeltaPlanStickiness: a delta repair moves only the replicas the
// new fault displaces — every replica whose node stays healthy keeps it.
func TestDeltaPlanStickiness(t *testing.T) {
	g, topo, opts := largestC2()
	syn := plan.NewSynth(g, topo, opts)
	base, err := syn.BuildPlan(plan.NewFaultSet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < topo.N; n++ {
		fs := plan.NewFaultSet(network.NodeID(n))
		p, err := syn.DeltaPlan(base, fs)
		if err != nil {
			t.Fatalf("delta %v: %v", fs, err)
		}
		if err := plan.VerifyAssignment(p.Aug, p.Assign, fs); err != nil {
			t.Fatalf("delta %v: %v", fs, err)
		}
		for id, prev := range base.Assign {
			if fs.Contains(prev) {
				continue
			}
			if got := p.Assign[id]; got != prev {
				t.Errorf("delta %v: replica %q moved %d -> %d without displacement", fs, id, prev, got)
			}
		}
	}
}

// TestWarmCacheSpeedup pins the headline acceptance criterion: on the
// largest C2 topology, resolving the full fault-set lattice from a warm
// cache is at least 5x faster than cold full synthesis (plan.Build).
// The real margin is orders of magnitude; 5x keeps the pin robust on
// loaded CI machines.
func TestWarmCacheSpeedup(t *testing.T) {
	g, topo, opts := largestC2()

	cold := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := plan.Build(g, topo, opts); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < cold {
			cold = d
		}
	}

	// One strategy build plans every fault set up to F, warming the cache.
	eng := NewEngine(g, topo, opts, nil)
	if _, err := eng.BuildStrategy(); err != nil {
		t.Fatal(err)
	}
	warm := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := eng.BuildStrategy(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < warm {
			warm = d
		}
	}
	t.Logf("cold full synthesis: %v, warm cache: %v (%.1fx)", cold, warm, float64(cold)/float64(warm))
	if cold < 5*warm {
		t.Errorf("warm cache not >=5x faster: cold %v vs warm %v", cold, warm)
	}
}
