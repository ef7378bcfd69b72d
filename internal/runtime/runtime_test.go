package runtime

import (
	"bytes"
	"fmt"
	"testing"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sig"
	"btr/internal/sim"
)

// harness bundles a complete runtime system plus observation hooks.
type harness struct {
	k        *sim.Kernel
	net      *network.Network
	strategy *plan.Strategy
	sys      *System

	// actuations[period] lists commands in arrival order per sink.
	actuations map[flow.TaskID]map[uint64][][]byte
	events     []Event
	evidences  []evidence.Evidence
	switches   int
}

// observe is the harness's Config.Observer: it keeps every event, and
// the accepted evidence and mode switch count on the side.
func (h *harness) observe(ev Event) {
	h.events = append(h.events, ev)
	switch ev.Kind {
	case EvidenceAccepted:
		h.evidences = append(h.evidences, ev.Evidence)
	case ModeSwitch:
		h.switches++
	}
}

// chainHarness builds a 3-task chain on a 6-node mesh with f=1.
func chainHarness(t *testing.T, seed uint64) *harness {
	t.Helper()
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	return newHarness(t, g, 6, 1, seed)
}

func newHarness(t *testing.T, g *flow.Graph, nodes, f int, seed uint64) *harness {
	t.Helper()
	return newHarnessOn(t, g, nodes, f, seed, nil)
}

// newHarnessOn is newHarness with the runtime's transport wrapped by wrap
// (nil: the simulated network itself).
func newHarnessOn(t *testing.T, g *flow.Graph, nodes, f int, seed uint64, wrap func(*network.Network) network.Transport) *harness {
	t.Helper()
	k := sim.NewKernel(seed)
	topo := network.FullMesh(nodes, 20_000_000, 50*sim.Microsecond)
	nw := network.New(k, topo, network.DefaultConfig())
	var tr network.Transport = nw
	if wrap != nil {
		tr = wrap(nw)
	}
	reg := sig.NewRegistry(seed, nodes)
	strategy, err := plan.Build(g, topo, plan.DefaultOptions(f, 500*sim.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		k: k, net: nw, strategy: strategy,
		actuations: map[flow.TaskID]map[uint64][][]byte{},
	}
	h.sys = New(Config{
		Kernel: k, Net: tr, Registry: reg, Strategy: strategy,
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

// run starts the system and simulates n periods.
func (h *harness) run(n uint64) {
	h.sys.Start()
	h.k.Run(sim.Time(n) * h.strategy.Base.Period)
}

// expectedChainValue computes the oracle output of chain task c<i> at p.
func expectedChainValue(i int, p uint64) []byte {
	v := evidence.SourceValue("c0", p)
	for j := 1; j <= i; j++ {
		v = evidence.HashCompute(flow.TaskID(fmt.Sprintf("c%d", j)), p,
			[]evidence.Record{{Logical: flow.TaskID(fmt.Sprintf("c%d", j-1)), Value: v}})
	}
	return v
}

// nodeOf returns the node hosting a replica in the base plan.
func (h *harness) nodeOf(replica flow.TaskID) network.NodeID {
	return h.strategy.Plans[""].Assign[replica]
}

func TestFaultFreeRun(t *testing.T) {
	h := chainHarness(t, 1)
	h.run(20)
	if len(h.evidences) != 0 {
		t.Fatalf("fault-free run produced %d pieces of evidence: first %v",
			len(h.evidences), h.evidences[0].Kind)
	}
	if h.switches != 0 {
		t.Fatalf("fault-free run switched modes %d times", h.switches)
	}
	// Every period 0..18 must have actuations with the oracle value
	// (period 19's slots may extend past the run horizon).
	for p := uint64(0); p < 19; p++ {
		acts := h.actuations["c2"][p]
		if len(acts) == 0 {
			t.Fatalf("no actuation in period %d", p)
		}
		want := expectedChainValue(2, p)
		for _, v := range acts {
			if !bytes.Equal(v, want) {
				t.Fatalf("period %d: actuation %x, want %x", p, v, want)
			}
		}
	}
	// All nodes still on the base plan.
	if key, ok := h.sys.Converged(plan.NewFaultSet()); !ok || key != "" {
		t.Errorf("converged=%v key=%q", ok, key)
	}
}

func TestCrashFaultConvictsAndSwitches(t *testing.T) {
	h := chainHarness(t, 2)
	victim := h.nodeOf("c1#0")
	h.k.At(3*h.strategy.Base.Period+sim.Millisecond, func() {
		h.sys.Crash(victim)
	})
	h.run(30)

	// Path accusations must exist, and the victim must be convicted on
	// every correct node.
	sawAccusation := false
	for _, ev := range h.evidences {
		if ev.Kind == evidence.KindPathAccusation {
			sawAccusation = true
		}
	}
	if !sawAccusation {
		t.Fatal("crash produced no path accusations")
	}
	excl := plan.NewFaultSet(victim)
	key, ok := h.sys.Converged(excl)
	if !ok {
		t.Fatal("correct nodes did not converge")
	}
	if key != excl.Key() {
		t.Fatalf("converged on plan %q, want %q", key, excl.Key())
	}
	// Outputs must continue: the surviving c1 replica feeds both c2
	// replicas (f+1 replication means a single crash never interrupts).
	for p := uint64(0); p < 28; p++ {
		if len(h.actuations["c2"][p]) == 0 {
			t.Errorf("no actuation in period %d despite replication", p)
		}
	}
}

func TestWrongOutputDetectedAndMasked(t *testing.T) {
	h := chainHarness(t, 3)
	victim := h.nodeOf("c1#0")
	// From period 5 on, node hosting c1#0 lies about its output value.
	h.k.At(5*h.strategy.Base.Period-1, func() {
		h.sys.SetBehavior(victim, &Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if rec.Logical == "c1" {
					rec.Value = []byte("corrupted!")
				}
				return rec, 0, false || true
			},
		})
	})
	h.run(30)

	sawProof := false
	for _, ev := range h.evidences {
		if ev.Kind == evidence.KindWrongOutput && ev.Accused == victim {
			sawProof = true
			break
		}
	}
	if !sawProof {
		t.Fatal("no wrong-output proof against the lying node")
	}
	// Consumers only compute from audited-consistent inputs, so the lie
	// never reaches the actuator: every actuation matches the oracle.
	for p := uint64(0); p < 28; p++ {
		for _, v := range h.actuations["c2"][p] {
			if !bytes.Equal(v, expectedChainValue(2, p)) {
				t.Fatalf("period %d: corrupted value reached the actuator", p)
			}
		}
	}
	// And the system reconfigured away from the victim.
	if key, ok := h.sys.Converged(plan.NewFaultSet(victim)); !ok || key != plan.NewFaultSet(victim).Key() {
		t.Errorf("not converged on exclusion of %d: key=%q ok=%v", victim, key, ok)
	}
}

// scribbler is a TaskFunc that breaks the no-retain rule as hard as it
// can: it keeps the dst it was handed and, on its next call, overwrites
// that array up to its capacity before computing into the new dst.
type scribbler struct {
	last      []byte
	scribbled int // bytes overwritten so far
}

func (s *scribbler) compute(dst []byte, task flow.TaskID, period uint64, inputs []evidence.Record) []byte {
	for i := range s.last {
		s.last[i] ^= 0xa5
	}
	s.scribbled += len(s.last)
	s.last = dst[:cap(dst)]
	return evidence.AppendHashCompute(dst, task, period, inputs)
}

// scribblingHarness is chainHarness with every node computing through
// one scribbler.
func scribblingHarness(t *testing.T, seed uint64) (*harness, *scribbler) {
	h := chainHarness(t, seed)
	s := &scribbler{}
	h.sys.Node(0).cfg.Compute = s.compute // every node shares one Config
	return h, s
}

// TestTaskFuncScratchIsNotRetained: the runtime keeps no value computed
// into a dst it reuses, so a TaskFunc scribbling over the last dst it
// was handed corrupts nothing — a fault-free chain raises no evidence
// and actuates the oracle's values.
func TestTaskFuncScratchIsNotRetained(t *testing.T) {
	h, s := scribblingHarness(t, 1)
	h.run(20)
	if s.scribbled == 0 {
		t.Fatal("the runtime never handed the TaskFunc a non-empty dst; the check is vacuous")
	}
	if len(h.evidences) != 0 {
		t.Fatalf("fault-free run raised %d pieces of evidence: first %v", len(h.evidences), h.evidences[0].Kind)
	}
	for p := uint64(0); p < 19; p++ {
		want := expectedChainValue(2, p)
		for _, v := range h.actuations["c2"][p] {
			if !bytes.Equal(v, want) {
				t.Fatalf("period %d: actuation %x, want %x", p, v, want)
			}
		}
	}
}

// TestTaskFuncScratchCorruptTaskConvictsVictim: under the same
// scribbling TaskFunc, a corrupt-task attack (the adversary prefixes its
// replica's value) is convicted by a wrong-output proof, every correct
// node excludes exactly the victim, and no proof accuses anyone else.
func TestTaskFuncScratchCorruptTaskConvictsVictim(t *testing.T) {
	h, _ := scribblingHarness(t, 3)
	victim := h.nodeOf("c1#0")
	h.k.At(5*h.strategy.Base.Period-1, func() {
		h.sys.SetBehavior(victim, &Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if rec.Logical == "c1" {
					rec.Value = append([]byte("corrupt:"), rec.Value...)
				}
				return rec, 0, true
			},
		})
	})
	h.run(30)
	proofs := 0
	for _, ev := range h.evidences {
		if ev.Kind.Proof() && ev.Accused != victim {
			t.Fatalf("%v proof accuses node %d, not the victim %d", ev.Kind, ev.Accused, victim)
		}
		if ev.Kind == evidence.KindWrongOutput {
			proofs++
		}
	}
	if proofs == 0 {
		t.Fatal("no wrong-output proof against the corrupting node")
	}
	if key, ok := h.sys.Converged(plan.NewFaultSet(victim)); !ok || key != plan.NewFaultSet(victim).Key() {
		t.Errorf("not converged on exclusion of %d: key=%q ok=%v", victim, key, ok)
	}
}

func TestSinkCommissionBoundedByR(t *testing.T) {
	h := chainHarness(t, 4)
	// Corrupt whichever sink replica actuates first so the fault is
	// externally visible (the plant acts on the first command).
	base := h.strategy.Plans[""]
	firstSink := flow.TaskID("c2#0")
	if base.Table.Finish("c2#1") < base.Table.Finish("c2#0") {
		firstSink = "c2#1"
	}
	victim := base.Assign[firstSink]
	faultAt := 5 * h.strategy.Base.Period
	h.k.At(faultAt-1, func() {
		h.sys.SetBehavior(victim, &Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if rec.Logical == "c2" {
					rec.Value = []byte("bad actuation")
				}
				return rec, 0, true
			},
		})
	})
	h.run(40)

	// Wrong actuations exist (the actuator takes the first arrival)...
	var lastBadPeriod uint64
	sawBad := false
	for p := uint64(0); p < 38; p++ {
		for _, v := range h.actuations["c2"][p] {
			if !bytes.Equal(v, expectedChainValue(2, p)) {
				sawBad = true
				if p > lastBadPeriod {
					lastBadPeriod = p
				}
			}
		}
	}
	if !sawBad {
		t.Fatal("sink commission fault never produced a wrong actuation — test ineffective")
	}
	// ...but they stop within the strategy's recovery bound.
	lastBadTime := sim.Time(lastBadPeriod+1) * h.strategy.Base.Period
	if lastBadTime > faultAt+h.strategy.RNeeded {
		t.Errorf("bad outputs until %v, fault at %v, R=%v — bound violated",
			lastBadTime, faultAt, h.strategy.RNeeded)
	}
	// Checkers must have produced a wrong-output proof for the sink.
	sawProof := false
	for _, ev := range h.evidences {
		if ev.Kind == evidence.KindWrongOutput && ev.Accused == victim {
			sawProof = true
		}
	}
	if !sawProof {
		t.Error("checker did not prove the sink fault")
	}
}

func TestTimingFaultProof(t *testing.T) {
	h := chainHarness(t, 5)
	victim := h.nodeOf("c1#0")
	h.k.At(5*h.strategy.Base.Period-1, func() {
		h.sys.SetBehavior(victim, &Behavior{
			// The record *admits* an out-of-window send time (e.g., a
			// compromised executive stamping honestly) while the bytes
			// still arrive on time — the purest "right thing at the
			// wrong time" signature (§4.2). An actually-late send is
			// convicted through watchdog accusations instead (see
			// TestOmissionViaDelayAccusations).
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if rec.Logical == "c1" {
					rec.SendOff += 10 * sim.Millisecond
				}
				return rec, 0, true
			},
		})
	})
	h.run(30)
	saw := false
	for _, ev := range h.evidences {
		if ev.Kind == evidence.KindTiming && ev.Accused == victim {
			saw = true
			break
		}
	}
	if !saw {
		t.Fatal("no timing proof despite out-of-window send offset")
	}
}

func TestOmissionViaDelayAccusations(t *testing.T) {
	// The adversary delays without admitting it (SendOff stays in-window,
	// actual send late): no cryptographic proof is possible, so the
	// arrival watchdogs must accuse and the attributor convict.
	h := chainHarness(t, 6)
	victim := h.nodeOf("c1#0")
	h.k.At(5*h.strategy.Base.Period-1, func() {
		h.sys.SetBehavior(victim, &Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if rec.Logical == "c1" {
					return rec, 0, false // pure omission
				}
				return rec, 0, true
			},
		})
	})
	h.run(30)
	if key, ok := h.sys.Converged(plan.NewFaultSet(victim)); !ok || key != plan.NewFaultSet(victim).Key() {
		t.Fatalf("omission not attributed: key=%q ok=%v", key, ok)
	}
	// Outputs never degraded (the other c1 replica serves consumers).
	for p := uint64(0); p < 28; p++ {
		if len(h.actuations["c2"][p]) == 0 {
			t.Errorf("period %d lost actuation", p)
		}
	}
}

func TestEquivocationAcrossConsumersDetected(t *testing.T) {
	// Avionics: gyro feeds both fc.filter and nav.fuse. A gyro replica
	// equivocating across the two consumers is caught when both versions
	// meet — via attachments or co-located consumers.
	g := flow.Avionics(25 * sim.Millisecond)
	h := newHarness(t, g, 6, 1, 7)
	victim := h.nodeOf("gyro#0")
	h.k.At(4*h.strategy.Base.Period-1, func() {
		h.sys.SetBehavior(victim, &Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if rec.Logical == "gyro" {
					logical, _ := plan.SplitReplica(consumer)
					if logical == "fc.filter" {
						rec.Value = []byte("lie-to-fc")
					}
				}
				return rec, 0, true
			},
		})
	})
	h.run(30)
	// Either an equivocation proof or minority accusations must convict.
	if key, ok := h.sys.Converged(plan.NewFaultSet(victim)); !ok || key != plan.NewFaultSet(victim).Key() {
		t.Fatalf("equivocating source not excluded: key=%q ok=%v", key, ok)
	}
}

func TestBogusFloodSelfConvicts(t *testing.T) {
	h := chainHarness(t, 8)
	flooder := network.NodeID(0)
	// Make sure the flooder hosts nothing critical: flood from whichever
	// node it is anyway — conviction must happen regardless.
	h.k.At(3*h.strategy.Base.Period, func() {
		h.sys.SetBehavior(flooder, &Behavior{BogusEvidencePerPeriod: 4})
	})
	h.run(30)
	sawBogusProof := false
	for _, ev := range h.evidences {
		if ev.Kind == evidence.KindBogus && ev.Accused == flooder {
			sawBogusProof = true
			break
		}
	}
	if !sawBogusProof {
		t.Fatal("bogus flood produced no endorsement proof")
	}
	// Every correct node must have excluded the flooder.
	for id := 1; id < 6; id++ {
		if !h.sys.FaultSetOf(network.NodeID(id)).Contains(flooder) {
			t.Errorf("node %d did not convict the flooder", id)
		}
	}
	// Outputs unaffected throughout.
	for p := uint64(0); p < 28; p++ {
		acts := h.actuations["c2"][p]
		if len(acts) == 0 {
			t.Errorf("period %d lost actuation during flood", p)
			continue
		}
		if !bytes.Equal(acts[0], expectedChainValue(2, p)) {
			t.Errorf("period %d actuation corrupted during flood", p)
		}
	}
}

func TestEvidenceRateLimiting(t *testing.T) {
	// Repeatedly inject the *same valid* evidence from one neighbor: the
	// sender is not punishable (the blob is valid), so the per-neighbor
	// budget is the only thing bounding the receiver's verification work.
	h := chainHarness(t, 9)
	reg := h.sys.cfg.Registry
	acc := evidence.Accusation{Reporter: 1, Path: []network.NodeID{3, 4}, Producer: "c1#0", Consumer: "c2#0", Period: 1}
	ev := evidence.Sealed(reg, evidence.KindPathAccusation, 1, sim.Millisecond, acc)
	payload := reg.SealedPayload(1, msgEvidence, ev.Encode())
	receiver := h.sys.Node(2)
	for i := 0; i < 30; i++ {
		receiver.onEvidenceMessage(&network.Message{From: 1, To: 2, Payload: payload})
	}
	if receiver.EvidenceDropped == 0 {
		t.Error("per-neighbor budget never tripped after 30 injections")
	}
	if receiver.EvidenceDropped < 30-h.sys.cfg.EvidenceRateLimit {
		t.Errorf("dropped %d, want at least %d", receiver.EvidenceDropped, 30-h.sys.cfg.EvidenceRateLimit)
	}
}

func TestTwoStaggeredFaultsF2(t *testing.T) {
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritB)
	h := newHarness(t, g, 8, 2, 10)
	v1 := h.nodeOf("c1#0")
	h.k.At(3*h.strategy.Base.Period+sim.Millisecond, func() { h.sys.Crash(v1) })
	// Second fault after the first recovery: crash whichever node now
	// hosts c1#1 (from the base plan; it does not move since its node
	// stays healthy).
	v2 := h.nodeOf("c1#1")
	h.k.At(20*h.strategy.Base.Period+sim.Millisecond, func() { h.sys.Crash(v2) })
	h.run(45)

	want := plan.NewFaultSet(v1, v2)
	key, ok := h.sys.Converged(want)
	if !ok {
		t.Fatal("no convergence after two staggered faults")
	}
	if key != want.Key() {
		t.Fatalf("converged on %q, want %q", key, want.Key())
	}
	for p := uint64(0); p < 43; p++ {
		if len(h.actuations["c2"][p]) == 0 {
			t.Errorf("period %d lost actuation", p)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, int) {
		h := chainHarness(t, 42)
		victim := h.nodeOf("c1#0")
		h.k.At(3*h.strategy.Base.Period+sim.Millisecond, func() { h.sys.Crash(victim) })
		h.run(20)
		return len(h.evidences), h.switches
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Errorf("nondeterministic: evidence %d vs %d, switches %d vs %d", e1, e2, s1, s2)
	}
}

func TestNodeNeverConvictsItself(t *testing.T) {
	h := chainHarness(t, 11)
	victim := h.nodeOf("c1#0")
	h.k.At(3*h.strategy.Base.Period, func() {
		h.sys.SetBehavior(victim, &Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				rec.Value = []byte("junk")
				return rec, 0, true
			},
		})
	})
	h.run(20)
	if h.sys.FaultSetOf(victim).Contains(victim) {
		t.Error("node excluded itself from its own fault set")
	}
}

func TestConvictedNodeTrafficIgnored(t *testing.T) {
	h := chainHarness(t, 12)
	victim := h.nodeOf("c1#0")
	h.k.At(3*h.strategy.Base.Period-1, func() {
		h.sys.SetBehavior(victim, &Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if rec.Logical == "c1" {
					rec.Value = []byte("junk")
				}
				return rec, 0, true
			},
		})
	})
	h.run(30)
	// After conviction the victim keeps sending on its stale plan; the
	// outputs must remain correct regardless.
	for p := uint64(20); p < 28; p++ {
		for _, v := range h.actuations["c2"][p] {
			if !bytes.Equal(v, expectedChainValue(2, p)) {
				t.Fatalf("period %d: stale traffic corrupted output", p)
			}
		}
	}
}

func BenchmarkFaultFreePeriod(b *testing.B) {
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	k := sim.NewKernel(1)
	topo := network.FullMesh(6, 20_000_000, 50*sim.Microsecond)
	nw := network.New(k, topo, network.DefaultConfig())
	reg := sig.NewRegistry(1, 6)
	strategy, err := plan.Build(g, topo, plan.DefaultOptions(1, 500*sim.Millisecond))
	if err != nil {
		b.Fatal(err)
	}
	sys := New(Config{Kernel: k, Net: nw, Registry: reg, Strategy: strategy})
	sys.Start()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Run(sim.Time(i+1) * g.Period)
	}
}
