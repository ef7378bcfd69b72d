package baseline

import (
	"testing"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sched"
	"btr/internal/sim"
)

func testWorkload() *flow.Graph {
	return flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
}

func testTopo(n int) *network.Topology {
	return network.FullMesh(n, 20_000_000, 50*sim.Microsecond)
}

func TestReplicaFactors(t *testing.T) {
	cases := []struct {
		p       Protocol
		f       int
		ns, src int
	}{
		{BTR, 1, 2, 3},
		{BTR, 2, 3, 5},
		{BFTMask, 1, 4, 4},
		{BFTMask, 2, 7, 7},
		{ZZReactive, 1, 2, 3},
		{SelfStab, 1, 1, 1},
		{Unreplicated, 2, 1, 1},
	}
	for _, c := range cases {
		ns, src := ReplicaFactor(c.p, c.f)
		if ns != c.ns || src != c.src {
			t.Errorf("%v f=%d: got (%d,%d), want (%d,%d)", c.p, c.f, ns, src, c.ns, c.src)
		}
	}
}

func TestAugmentValidates(t *testing.T) {
	g := testWorkload()
	for _, p := range Protocols {
		aug := Augment(p, g, 1)
		if err := aug.Validate(); err != nil {
			t.Errorf("%v: augmented graph invalid: %v", p, err)
		}
	}
}

func TestAugmentSizesOrdered(t *testing.T) {
	g := testWorkload()
	sizes := map[Protocol]int{}
	for _, p := range Protocols {
		sizes[p] = len(Augment(p, g, 1).Tasks)
	}
	if !(sizes[BFTMask] > sizes[BTR]) {
		t.Errorf("BFT (%d tasks) should exceed BTR (%d)", sizes[BFTMask], sizes[BTR])
	}
	if !(sizes[BTR] > sizes[Unreplicated]) {
		t.Errorf("BTR (%d) should exceed unreplicated (%d)", sizes[BTR], sizes[Unreplicated])
	}
}

func TestSchedulableMonotoneInSpeed(t *testing.T) {
	g := testWorkload()
	topo := testTopo(8)
	for _, p := range []Protocol{BTR, BFTMask, Unreplicated} {
		if Schedulable(p, g, topo, 1, 0.02) && !Schedulable(p, g, topo, 1, 8.0) {
			t.Errorf("%v: schedulable slow but not fast — monotonicity broken", p)
		}
		if !Schedulable(p, g, topo, 1, 8.0) {
			t.Errorf("%v: not schedulable even at 8x", p)
		}
	}
}

func TestMinSpeedOrdering(t *testing.T) {
	// The paper's cost claim: masking needs a faster CPU than detection,
	// which needs a faster CPU than nothing.
	g := testWorkload()
	topo := testTopo(8)
	unrep := MinSpeed(Unreplicated, g, topo, 1)
	btr := MinSpeed(BTR, g, topo, 1)
	bft := MinSpeed(BFTMask, g, topo, 1)
	if unrep == 0 || btr == 0 || bft == 0 {
		t.Fatalf("unschedulable: unrep=%v btr=%v bft=%v", unrep, btr, bft)
	}
	if !(unrep < btr && btr < bft) {
		t.Errorf("min speeds not ordered: unrep=%.3f btr=%.3f bft=%.3f", unrep, btr, bft)
	}
}

func TestUtilizationOrdering(t *testing.T) {
	g := testWorkload()
	topo := testTopo(8)
	uBTR, bBTR := Utilization(BTR, g, topo, 1)
	uBFT, _ := Utilization(BFTMask, g, topo, 1)
	uUn, bUn := Utilization(Unreplicated, g, topo, 1)
	if uBTR == 0 || uBFT == 0 || uUn == 0 {
		t.Fatalf("some protocol unschedulable: %v %v %v", uBTR, uBFT, uUn)
	}
	if bUn >= bBTR {
		t.Errorf("unreplicated bytes %d should be below BTR %d", bUn, bBTR)
	}
	// At f=1 on a tiny chain BTR's accountability attachments roughly
	// offset BFT's extra edges; the separation the paper argues shows up
	// as f grows (BFT bundles scale with (3f+1)^2 vs BTR's (f+1)^2).
	topo2 := testTopo(12)
	_, bBTR2 := Utilization(BTR, g, topo2, 2)
	_, bBFT2 := Utilization(BFTMask, g, topo2, 2)
	if bBTR2 == 0 || bBFT2 == 0 {
		t.Fatalf("f=2 unschedulable: btr=%d bft=%d", bBTR2, bBFT2)
	}
	if bBTR2 >= bBFT2 {
		t.Errorf("f=2 network bytes: btr=%d should be below bft=%d", bBTR2, bBFT2)
	}
	_ = bBTR
}

func TestRecoveryModelShapes(t *testing.T) {
	rng := sim.NewRNG(7)
	period := 25 * sim.Millisecond

	bft := DefaultRecoveryModel(BFTMask, period)
	for i := 0; i < 100; i++ {
		if bft.Sample(rng) != 0 {
			t.Fatal("BFT must mask (recovery 0)")
		}
	}

	zz := DefaultRecoveryModel(ZZReactive, period)
	for i := 0; i < 100; i++ {
		s := zz.Sample(rng)
		if s < zz.ZZStandbyActivation || s > zz.ZZStandbyActivation+2*period {
			t.Fatalf("ZZ sample %v outside activation window", s)
		}
	}

	ss := DefaultRecoveryModel(SelfStab, period)
	var max sim.Time
	for i := 0; i < 2000; i++ {
		s := ss.Sample(rng)
		if s < ss.AuditInterval {
			t.Fatalf("self-stab recovered before the first audit: %v", s)
		}
		if s > max {
			max = s
		}
	}
	// Heavy tail: max across 2000 samples should exceed 5 audit rounds.
	if max < 5*ss.AuditInterval {
		t.Errorf("self-stab tail too light: max %v", max)
	}

	un := DefaultRecoveryModel(Unreplicated, period)
	if un.Sample(rng) != sim.Never {
		t.Error("unreplicated must never recover")
	}
}

func TestProtocolStrings(t *testing.T) {
	for _, p := range Protocols {
		if p.String() == "" {
			t.Errorf("protocol %d has empty name", p)
		}
	}
}

// schedulableByFullBuild is the schedulability check rebuilt from
// scratch at every speed: a full plan.Build (every mode, transitions and
// bounds) whose fault-free plan sheds nothing for BTR, and Augment +
// AssignGreedy + sched.Build + deadlines for the others. MinSpeed's
// reused check must agree with it bit for bit.
func schedulableByFullBuild(p Protocol, g *flow.Graph, topo *network.Topology, f int, speed float64) bool {
	params := sched.DefaultParams()
	params.Speed = speed
	if p == BTR {
		opts := plan.DefaultOptions(f, sim.Never)
		opts.Sched = params
		s, err := plan.Build(g, topo, opts)
		return err == nil && len(s.Plans[""].ShedSinks) == 0
	}
	aug := Augment(p, g, f)
	asn, err := plan.AssignGreedy(aug, topo, plan.NewFaultSet())
	if err != nil {
		return false
	}
	table, err := sched.Build(aug, asn, topo, params, nil)
	if err != nil || len(table.CheckDeadlines(aug)) != 0 {
		return false
	}
	for _, s := range g.Sinks() {
		for _, id := range aug.TaskIDs() {
			if logical, _ := plan.SplitReplica(id); logical == s && table.Finish(id) > g.Tasks[s].Deadline {
				return false
			}
		}
	}
	return true
}

// minSpeedByFullBuild is MinSpeed's 41-step bisection over
// schedulableByFullBuild.
func minSpeedByFullBuild(p Protocol, g *flow.Graph, topo *network.Topology, f int) float64 {
	const lo0, hi0 = 0.01, 16.0
	if !schedulableByFullBuild(p, g, topo, f, hi0) {
		return 0
	}
	lo, hi := lo0, hi0
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if schedulableByFullBuild(p, g, topo, f, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestMinSpeedMatchesFullBuildBisection: the reused check bisects to the
// same float64, bit for bit, as a full build at every step, for every
// protocol on workloads with one and several sinks (Avionics sheds),
// dense and sparse topologies, and f = 1, 2.
func TestMinSpeedMatchesFullBuildBisection(t *testing.T) {
	const period = 25 * sim.Millisecond
	workloads := []*flow.Graph{
		flow.Chain(3, period, sim.Millisecond, 64, flow.CritA),
		flow.ForkJoin(3, period, sim.Millisecond, 64, flow.CritB),
		flow.Avionics(period),
	}
	topos := []*network.Topology{
		network.FullMesh(8, 20_000_000, 50*sim.Microsecond),
		network.Ring(6, 20_000_000, 50*sim.Microsecond),
	}
	for _, g := range workloads {
		for _, topo := range topos {
			for _, f := range []int{1, 2} {
				for _, p := range Protocols {
					got, want := MinSpeed(p, g, topo, f), minSpeedByFullBuild(p, g, topo, f)
					if got != want {
						t.Errorf("%s on %d nodes (%d links), f=%d, %v: MinSpeed %v, full-build bisection %v",
							g.Name, topo.N, len(topo.Links), f, p, got, want)
					}
				}
			}
		}
	}
}

// TestMinSpeedAllocPin pins MinSpeed(BTR) on the chain workload, full
// mesh of 8, f = 1: one plan.Synth for all 41 steps, each step the mode
// loop alone, on the Synth's own sched.Build scratch. Measured 2,845, and
// 2,933–2,955 under -race (4,569 while Build's scratch sat in a
// sync.Pool, 14,975 with a full plan.Build per step); the pin allows
// 455.
func TestMinSpeedAllocPin(t *testing.T) {
	g, topo := testWorkload(), testTopo(8)
	const limit = 3_300.0
	if got := testing.AllocsPerRun(2, func() { MinSpeed(BTR, g, topo, 1) }); got > limit {
		t.Errorf("MinSpeed(BTR) allocates %.0f, want <= %.0f", got, limit)
	}
}
