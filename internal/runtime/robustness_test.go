package runtime

import (
	"bytes"
	"testing"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sig"
	"btr/internal/sim"
)

// lossyHarness builds a chain system with residual per-hop loss.
func lossyHarness(t *testing.T, seed uint64, lossProb float64) *harness {
	t.Helper()
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	k := sim.NewKernel(seed)
	topo := network.FullMesh(6, 20_000_000, 50*sim.Microsecond)
	cfg := network.DefaultConfig()
	cfg.LossProb = lossProb
	nw := network.New(k, topo, cfg)
	reg := sig.NewRegistry(seed, 6)
	strategy, err := plan.Build(g, topo, plan.DefaultOptions(1, 500*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{k: k, net: nw, strategy: strategy,
		actuations: map[flow.TaskID]map[uint64][][]byte{}}
	h.sys = New(Config{
		Kernel: k, Net: nw, Registry: reg, Strategy: strategy,
		OnActuation: func(node network.NodeID, sink flow.TaskID, period uint64, value []byte, at sim.Time) {
			per := h.actuations[sink]
			if per == nil {
				per = map[uint64][][]byte{}
				h.actuations[sink] = per
			}
			per[period] = append(per[period], value)
		},
		Observer: h.observe,
	})
	return h
}

func TestResidualLossDoesNotCorruptOutputs(t *testing.T) {
	// The paper assumes FEC masks most losses; the residual must be
	// absorbed by f+1 replication without output disturbance. Spurious
	// accusations may occur but must stay below the conviction threshold
	// often enough for the system to keep producing correct output.
	h := lossyHarness(t, 5, 0.0005)
	h.run(40)
	for p := uint64(0); p < 38; p++ {
		acts := h.actuations["c2"][p]
		if len(acts) == 0 {
			t.Fatalf("period %d: actuation lost under residual loss", p)
		}
		if !bytes.Equal(acts[0], expectedChainValue(2, p)) {
			t.Fatalf("period %d: output corrupted under residual loss", p)
		}
	}
}

func TestHeavyLossStillNoWrongValues(t *testing.T) {
	// Even absurd loss (1%) may cost actuations but must never produce a
	// *wrong* value: losses cannot forge signatures.
	h := lossyHarness(t, 6, 0.01)
	h.run(30)
	for p := uint64(0); p < 28; p++ {
		for _, v := range h.actuations["c2"][p] {
			if !bytes.Equal(v, expectedChainValue(2, p)) {
				t.Fatalf("period %d: wrong value under loss", p)
			}
		}
	}
}

func TestDualBusOmissionAttribution(t *testing.T) {
	// Multi-hop accusation paths include the bus guardians (the known
	// attribution ambiguity documented on evidence.Attributor): the
	// omitting node must be convicted; a guardian sharing every
	// problematic path may be convicted alongside it. Outputs must stay
	// correct either way.
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	k := sim.NewKernel(7)
	topo := network.DualBus(7, 20_000_000, 50*sim.Microsecond)
	nw := network.New(k, topo, network.DefaultConfig())
	reg := sig.NewRegistry(7, 7)
	strategy, err := plan.Build(g, topo, plan.DefaultOptions(1, 500*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{k: k, net: nw, strategy: strategy,
		actuations: map[flow.TaskID]map[uint64][][]byte{}}
	h.sys = New(Config{
		Kernel: k, Net: nw, Registry: reg, Strategy: strategy,
		OnActuation: func(node network.NodeID, sink flow.TaskID, period uint64, value []byte, at sim.Time) {
			per := h.actuations[sink]
			if per == nil {
				per = map[uint64][][]byte{}
				h.actuations[sink] = per
			}
			per[period] = append(per[period], value)
		},
	})
	victim := h.nodeOf("c1#0")
	h.k.At(4*h.strategy.Base.Period-1, func() {
		h.sys.SetBehavior(victim, &Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if rec.Logical == "c1" {
					return rec, 0, false
				}
				return rec, 0, true
			},
		})
	})
	h.run(30)
	// Every correct node must hold the victim in its fault set.
	for id := 0; id < 7; id++ {
		n := network.NodeID(id)
		if n == victim {
			continue
		}
		if !h.sys.FaultSetOf(n).Contains(victim) {
			t.Errorf("node %d did not convict the omitter on the dual bus", id)
		}
	}
	for p := uint64(0); p < 28; p++ {
		if len(h.actuations["c2"][p]) == 0 {
			t.Errorf("period %d: output lost on dual bus", p)
		}
	}
}

func TestFaultDuringTransition(t *testing.T) {
	// Second fault lands while the first transition is still in flight
	// (§4.4's "some confusion can briefly result"): the system must still
	// converge on the union fault set and keep outputs flowing.
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritB)
	h := newHarness(t, g, 8, 2, 20)
	v1 := h.nodeOf("c1#0")
	v2 := h.nodeOf("c0#0")
	if v1 == v2 {
		t.Fatalf("fixture degenerate: same node hosts both targets")
	}
	p := h.strategy.Base.Period
	h.k.At(3*p+sim.Millisecond, func() { h.sys.Crash(v1) })
	// Strike again inside the first fault's recovery window.
	h.k.At(3*p+sim.Millisecond+h.strategy.Delta/2, func() { h.sys.Crash(v2) })
	h.run(40)

	want := plan.NewFaultSet(v1, v2)
	key, ok := h.sys.Converged(want)
	if !ok || key != want.Key() {
		t.Fatalf("no convergence after overlapping faults: key=%q ok=%v", key, ok)
	}
	// Outputs must resume (brief disruption allowed within 2R).
	missing := 0
	for p := uint64(0); p < 38; p++ {
		if len(h.actuations["c2"][p]) == 0 {
			missing++
		}
	}
	maxMissing := int(2*h.strategy.RNeeded/h.strategy.Base.Period) + 1
	if missing > maxMissing {
		t.Errorf("%d periods without actuation, budget %d", missing, maxMissing)
	}
}

func TestColludingSuppressorDoesNotBlockDetection(t *testing.T) {
	// f=2: one node corrupts the first-actuating sink replica; a second
	// compromised node suppresses its own detection and forwarding.
	// The remaining correct checker replicas must still convict the
	// corruptor within R.
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	h := newHarness(t, g, 8, 2, 21)
	base := h.strategy.Plans[""]
	firstSink := flow.TaskID("c2#0")
	for _, cand := range []flow.TaskID{"c2#1", "c2#2"} {
		if base.Table.Finish(cand) < base.Table.Finish(firstSink) {
			firstSink = cand
		}
	}
	corruptor := base.Assign[firstSink]
	// The suppressor: a node hosting one of the checker replicas.
	var suppressor network.NodeID = -1
	for _, id := range base.Aug.TaskIDs() {
		logical, _ := plan.SplitReplica(id)
		if plan.IsChecker(logical) && base.Assign[id] != corruptor {
			suppressor = base.Assign[id]
			break
		}
	}
	if suppressor == -1 {
		t.Fatal("no checker host found")
	}
	p := h.strategy.Base.Period
	faultAt := 5 * p
	h.k.At(faultAt-1, func() {
		h.sys.SetBehavior(suppressor, &Behavior{SuppressDetection: true, SuppressForwarding: true})
		h.sys.SetBehavior(corruptor, &Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if rec.Logical == "c2" {
					rec.Value = []byte("bad")
				}
				return rec, 0, true
			},
		})
	})
	h.run(40)
	convicted := 0
	for id := 0; id < 8; id++ {
		n := network.NodeID(id)
		if n == corruptor || n == suppressor {
			continue
		}
		if h.sys.FaultSetOf(n).Contains(corruptor) {
			convicted++
		}
	}
	if convicted < 6 {
		t.Fatalf("only %d/6 correct nodes convicted the corruptor despite a colluding suppressor", convicted)
	}
	// Bad actuations bounded by R.
	var lastBad sim.Time
	for p := uint64(0); p < 38; p++ {
		for _, v := range h.actuations["c2"][p] {
			if !bytes.Equal(v, expectedChainValue(2, p)) {
				lastBad = sim.Time(p+1) * h.strategy.Base.Period
			}
		}
	}
	if lastBad > faultAt+h.strategy.RNeeded {
		t.Errorf("bad outputs until %v despite bound %v after %v", lastBad, h.strategy.RNeeded, faultAt)
	}
}

func TestSimultaneousFaultsSameInstant(t *testing.T) {
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritB)
	h := newHarness(t, g, 8, 2, 22)
	v1, v2 := h.nodeOf("c1#0"), h.nodeOf("c1#1")
	p := h.strategy.Base.Period
	h.k.At(3*p+sim.Millisecond, func() {
		h.sys.Crash(v1)
		h.sys.Crash(v2)
	})
	h.run(40)
	want := plan.NewFaultSet(v1, v2)
	key, ok := h.sys.Converged(want)
	if !ok || key != want.Key() {
		t.Fatalf("no convergence after simultaneous crashes: key=%q ok=%v", key, ok)
	}
}

func TestBeyondFaultBudgetDegradesGracefully(t *testing.T) {
	// f=1 but TWO nodes crash: the BTR guarantee is void, yet the system
	// must not panic, and PlanFor falls back to a covered subset.
	h := chainHarness(t, 23)
	v1, v2 := h.nodeOf("c1#0"), h.nodeOf("c1#1")
	p := h.strategy.Base.Period
	h.k.At(3*p, func() { h.sys.Crash(v1) })
	h.k.At(10*p, func() { h.sys.Crash(v2) })
	h.run(30) // must not panic
	// All c1 replicas are gone: outputs necessarily stop. Nothing to
	// assert beyond survival and bounded fault sets.
	for id := 0; id < 6; id++ {
		if h.sys.FaultSetOf(network.NodeID(id)).Len() > 2 {
			t.Errorf("node %d convicted more nodes than failed", id)
		}
	}
}
