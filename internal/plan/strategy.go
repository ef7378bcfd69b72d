package plan

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sched"
	"btr/internal/sim"
)

// Options configures strategy construction.
type Options struct {
	// F is the maximum number of simultaneously faulty nodes.
	F int
	// R is the requested recovery bound. Build reports (but does not
	// fail on) infeasibility; callers decide.
	R sim.Time
	// Sched carries CPU speed, crypto costs, and the evidence share.
	Sched sched.Params
	// SourceReplicas overrides source replication (default 2F+1).
	SourceReplicas int
	// CheckerWCET is the per-checker execution budget.
	CheckerWCET sim.Time
	// MinimalDiff derives each plan from its canonical predecessor to
	// minimize reassignment (§4.1). False = naive replanning (ablation).
	MinimalDiff bool
	// Locality enables the producer-proximity placement heuristic.
	Locality bool
	// OmissionThreshold is the attribution threshold for path
	// accusations; defaults to F+1 (so F colluding accusers cannot frame
	// a correct node).
	OmissionThreshold int
	// WatchdogMargin is added to planned arrival offsets before a
	// consumer declares an omission.
	WatchdogMargin sim.Time
}

// DefaultOptions returns the planner defaults for fault bound f and
// recovery bound r.
func DefaultOptions(f int, r sim.Time) Options {
	return Options{
		F:                 f,
		R:                 r,
		Sched:             sched.DefaultParams(),
		CheckerWCET:       300 * sim.Microsecond,
		MinimalDiff:       true,
		Locality:          true,
		OmissionThreshold: f + 1,
		WatchdogMargin:    2 * sim.Millisecond,
	}
}

// Plan is one mode's complete configuration: which tasks run where on
// what schedule, and which logical sinks were shed to fit.
type Plan struct {
	Faults FaultSet
	// Pruned is the base workload minus shed tasks; Aug is its
	// replica-augmented runtime graph.
	Pruned *flow.Graph
	Aug    *flow.Graph
	Assign Assignment
	Table  *sched.Table
	// ShedSinks lists logical sinks dropped in this mode (lowest
	// criticality first).
	ShedSinks []flow.TaskID
}

// Key returns the plan's strategy key.
func (p *Plan) Key() string { return p.Faults.Key() }

// RunsTask reports whether logical task id still runs in this mode.
func (p *Plan) RunsTask(id flow.TaskID) bool {
	_, ok := p.Pruned.Tasks[id]
	return ok
}

// FirstSinkHost returns the node hosting the plan's earliest-finishing
// sink replica (ties broken by lowest node ID): the replica whose command
// reaches the plant first, so the one whose corruption is externally
// visible. With sinks given, only replicas of those logical sinks count.
func (p *Plan) FirstSinkHost(sinks ...flow.TaskID) network.NodeID {
	best := network.NodeID(-1)
	var bestFin sim.Time
	for _, id := range p.Aug.TaskIDs() {
		logical, _ := SplitReplica(id)
		if len(sinks) == 0 {
			if lt, ok := p.Pruned.Tasks[logical]; !ok || !lt.Sink {
				continue
			}
		} else if !slices.Contains(sinks, logical) {
			continue
		}
		fin := p.Table.Finish(id)
		node := p.Assign[id]
		if best == -1 || fin < bestFin || (fin == bestFin && node < best) {
			best, bestFin = node, fin
		}
	}
	return best
}

// Transition describes switching from one plan to a successor.
type Transition struct {
	From, To   string
	Moved      []flow.TaskID // replicas whose node changes
	StateBytes int64         // total state that must migrate
	Bound      sim.Time      // worst-case completion time of the switch
}

// Strategy is the full offline artifact installed on every node: plans
// for every fault pattern up to F, transition bounds, and the derived
// timing constants that make recovery bounded.
type Strategy struct {
	Base *flow.Graph
	Topo *network.Topology
	Opts Options

	// Members restricts the strategy to a subset of the topology's node
	// slots (nil = every slot, the classic static deployment). A
	// membership epoch's strategy covers fault patterns over its active
	// members only, and the derived bounds use the member-induced
	// subgraph's diameter/bandwidth/propagation — dormant slots must not
	// dilate (or flatter) the provable recovery bound.
	Members []network.NodeID

	Plans map[string]*Plan
	// Trans holds, for each non-empty plan key, the worst-case transition
	// into it over all predecessors.
	Trans map[string]Transition

	// Derived bounds (README.md, "The recovery bound"):
	DetectBound     sim.Time // fault manifestation -> evidence exists
	DistributeBound sim.Time // evidence exists -> all correct nodes have it
	SwitchBound     sim.Time // activation -> new mode fully running
	// Delta is the activation delay: every correct node activates the
	// successor plan at detection_time + Delta (rounded up to a period
	// boundary), which is safe because Delta >= DistributeBound.
	Delta sim.Time
	// RNeeded is the provable recovery bound this strategy achieves.
	RNeeded sim.Time
}

// RFeasible reports whether the achieved bound meets the requested R.
func (s *Strategy) RFeasible() bool { return s.RNeeded <= s.Opts.R }

// Normalized fills the defaulted Options fields the way Build always
// has. Callers that fingerprint or compare Options should normalize
// first so implicit and explicit defaults coincide.
func (o Options) Normalized() Options {
	if o.OmissionThreshold == 0 {
		o.OmissionThreshold = o.F + 1
	}
	if o.CheckerWCET == 0 {
		o.CheckerWCET = 300 * sim.Microsecond
	}
	if o.WatchdogMargin == 0 {
		o.WatchdogMargin = 2 * sim.Millisecond
	}
	return o
}

// Build computes the complete strategy for the workload on the topology:
// the mode loop (Synth.Modes) plus the transition analysis and bounds.
func Build(base *flow.Graph, topo *network.Topology, opts Options) (*Strategy, error) {
	plans, err := NewSynth(base, topo, opts).Modes(false)
	if err != nil {
		return nil, err
	}
	return NewStrategyFromPlans(base, topo, opts, plans, nil), nil
}

// errShed is Modes' error when the fault-free mode must shed and the
// caller asked for the full workload.
var errShed = errors.New("plan: the fault-free mode sheds")

// Modes synthesizes one plan per fault set of size <= F, keyed by
// FaultSet.Key, in BFS order (the fault-free mode first), each placed
// near its canonical predecessor's plan when MinimalDiff is set. It stops
// at the first mode that does not build and, with unshed, as soon as the
// fault-free mode has to shed. Build is this loop plus the transition
// analysis; a schedulability check needs only the loop.
func (s *Synth) Modes(unshed bool) (map[string]*Plan, error) {
	if err := s.base.Validate(); err != nil {
		return nil, fmt.Errorf("plan: invalid workload: %w", err)
	}
	if s.opts.F < 0 {
		return nil, fmt.Errorf("plan: negative fault bound")
	}
	if s.sets == nil {
		s.sets = EnumerateFaultSets(s.topo.N, s.opts.F)
	}
	plans := make(map[string]*Plan, len(s.sets))
	for _, fs := range s.sets {
		var parent Assignment
		if s.opts.MinimalDiff && fs.Len() > 0 {
			// Canonical predecessor: remove the largest member. Its plan
			// exists because sets enumerate in BFS order.
			canon := fs.Without(fs.Nodes()[fs.Len()-1])
			if pp := plans[canon.Key()]; pp != nil {
				parent = pp.Assign
			}
		}
		p, err := s.BuildPlan(fs, parent)
		if err != nil {
			return nil, fmt.Errorf("plan: mode %v: %w", fs, err)
		}
		if unshed && fs.Len() == 0 && len(p.ShedSinks) > 0 {
			return nil, errShed
		}
		plans[fs.Key()] = p
	}
	return plans, nil
}

// TransitionFunc computes (or recalls) the transition analysis between
// two plans. The incremental engine passes a memoizing implementation so
// warm strategy assembly skips recomputing unchanged transitions.
type TransitionFunc func(a, b *Plan) Transition

// NewStrategyFromPlans assembles a Strategy from externally synthesized
// plans — one per fault set of size <= opts.F, keyed by FaultSet.Key —
// running the transition analysis and deriving the strategy-wide timing
// bounds. trans overrides the per-pair transition analysis (nil means
// TransitionBetween). Build uses it internally; the incremental plan
// engine (internal/plan/cache) uses it to assemble strategies from
// memoized plans. Options are normalized the same way Build normalizes
// them.
func NewStrategyFromPlans(base *flow.Graph, topo *network.Topology, opts Options, plans map[string]*Plan, trans TransitionFunc) *Strategy {
	return NewStrategyForMembers(base, topo, opts, nil, plans, trans)
}

// NewStrategyForMembers is NewStrategyFromPlans for a membership epoch:
// plans cover fault sets drawn from members only (still keyed by the
// member fault set's FaultSet.Key — each Plan may itself exclude the
// dormant slots on top), and the derived bounds use the member-induced
// subgraph metrics. members == nil means every slot (the classic case).
func NewStrategyForMembers(base *flow.Graph, topo *network.Topology, opts Options, members []network.NodeID, plans map[string]*Plan, trans TransitionFunc) *Strategy {
	opts = opts.Normalized()
	if trans == nil {
		trans = func(a, b *Plan) Transition {
			return TransitionBetween(a, b, topo, opts)
		}
	}
	s := &Strategy{
		Base:    base,
		Topo:    topo,
		Opts:    opts,
		Members: members,
		Plans:   plans,
		Trans:   map[string]Transition{},
	}
	var sets []FaultSet
	if members != nil {
		sets = EnumerateFaultSetsOver(members, opts.F)
	} else {
		sets = EnumerateFaultSets(topo.N, opts.F)
	}
	// Transition analysis: worst-case into each plan over all direct
	// predecessors.
	for _, fs := range sets {
		if fs.Len() == 0 {
			continue
		}
		to := s.Plans[fs.Key()]
		worst := Transition{From: "?", To: fs.Key()}
		for _, pred := range fs.Predecessors() {
			from := s.Plans[pred.Key()]
			tr := trans(from, to)
			if tr.Bound >= worst.Bound {
				worst = tr
			}
		}
		s.Trans[fs.Key()] = worst
	}
	s.deriveBounds()
	return s
}

// Synth is a reusable plan-synthesis context for one (workload, topology,
// options) triple. It memoizes the fault-set- and speed-independent work
// — the pruned/augmented graphs per shed set and each augmented graph's
// replica grouping; hop distances come from the topology's own route
// table — and owns assign's and sched.Build's scratch, so that building
// many plans (one per fault set during Build, many delta repairs in the
// incremental engine, or one mode loop per speed in baseline.MinSpeed)
// does not redo or reallocate it. A Synth is not safe for concurrent use; callers that
// synthesize from multiple goroutines must serialize (see
// internal/plan/cache).
type Synth struct {
	base    *flow.Graph
	topo    *network.Topology
	opts    Options
	augs    map[string]synthGraphs
	sets    []FaultSet // Modes' fault sets, enumerated on first use
	scratch assignScratch
	table   sched.Scratch
}

// synthGraphs is one shed set's memo. The graphs are never mutated after
// they are built, so grp stays aug's grouping.
type synthGraphs struct {
	pruned, aug *flow.Graph
	grp         *grouping
}

// NewSynth builds a synthesis context. Options are normalized once.
func NewSynth(base *flow.Graph, topo *network.Topology, opts Options) *Synth {
	return &Synth{
		base: base,
		topo: topo,
		opts: opts.Normalized(),
		augs: map[string]synthGraphs{},
	}
}

// SetSpeed sets the CPU speed factor later builds schedule at. Nothing
// the Synth memoizes depends on it, so one Synth serves a speed sweep.
func (s *Synth) SetSpeed(speed float64) { s.opts.Sched.Speed = speed }

// graphsFor returns the pruned and replica-augmented graphs for a shed
// set, and the augmented graph's grouping, memoized. pruned is nil when
// nothing schedulable remains; aug is nil when no sink does.
func (s *Synth) graphsFor(shed []flow.TaskID) synthGraphs {
	key := ""
	for _, id := range shed {
		key += string(id) + "\x00"
	}
	if g, ok := s.augs[key]; ok {
		return g
	}
	g := synthGraphs{pruned: prune(s.base, shed)}
	if g.pruned != nil && len(g.pruned.Sinks()) > 0 {
		g.aug = Augment(g.pruned, AugmentOptions{
			F:              s.opts.F,
			SourceReplicas: s.opts.SourceReplicas,
			CheckerWCET:    s.opts.CheckerWCET,
		})
		g.grp = groupReplicas(g.aug)
	}
	s.augs[key] = g
	return g
}

// place assigns g's augmented graph around the faults fs, near parent.
func (s *Synth) place(g synthGraphs, fs FaultSet, parent Assignment) (Assignment, error) {
	return assign(g.aug, g.grp, s.topo, assignOptions{
		faults:   fs,
		parent:   parent,
		locality: s.opts.Locality,
	}, &s.scratch)
}

// BuildPlan computes one mode's plan from scratch, shedding
// low-criticality sinks until the mode schedules ("the planner removes
// some of the less critical tasks and retries", §4.1). parent biases
// placement toward an existing assignment (nil for naive placement).
func (s *Synth) BuildPlan(fs FaultSet, parent Assignment) (*Plan, error) {
	return s.buildFrom(fs, parent, nil)
}

// DeltaPlan repairs prior's plan for fault set fs — intended for the
// incremental case where fs differs from prior.Faults by a single added
// or removed fault. The fast path reuses prior's pruned/augmented graphs
// and shed set verbatim and re-places only the replicas the fault delta
// displaces (assignment stickiness keeps every still-eligible replica on
// its node), then rebuilds and re-verifies the schedule table. If the
// repaired placement cannot schedule, it falls back to the full shedding
// loop seeded with prior's shed set and placement. The result is always
// fully verified (deadlines, anti-affinity) — delta derivation is an
// optimization, never a weakening of the plan contract. Note the repair
// never un-sheds: a plan derived from a shedding predecessor keeps its
// shed sinks even if a from-scratch build could avoid them.
func (s *Synth) DeltaPlan(prior *Plan, fs FaultSet) (*Plan, error) {
	if prior == nil {
		return s.BuildPlan(fs, nil)
	}
	if g := s.graphsFor(prior.ShedSinks); g.aug != nil {
		asn, err := s.place(g, fs, prior.Assign)
		if err == nil {
			table, terr := sched.Build(g.aug, asn, s.topo, s.opts.Sched, &s.table)
			if terr == nil && deadlinesOK(g.pruned, g.aug, table) == nil {
				return &Plan{
					Faults: fs, Pruned: g.pruned, Aug: g.aug,
					Assign: asn, Table: table,
					ShedSinks: prior.ShedSinks,
				}, nil
			}
		}
	}
	return s.buildFrom(fs, prior.Assign, prior.ShedSinks)
}

// buildFrom is the shedding loop, starting from an initial shed set.
func (s *Synth) buildFrom(fs FaultSet, parent Assignment, shed []flow.TaskID) (*Plan, error) {
	shed = append([]flow.TaskID(nil), shed...)
	var lastErr error
	for {
		g := s.graphsFor(shed)
		if g.aug == nil {
			if lastErr == nil {
				lastErr = fmt.Errorf("nothing schedulable")
			}
			return nil, fmt.Errorf("all sinks shed and still unschedulable: %v", lastErr)
		}
		asn, err := s.place(g, fs, parent)
		if err == nil {
			var table *sched.Table
			table, err = sched.Build(g.aug, asn, s.topo, s.opts.Sched, &s.table)
			if err == nil {
				if verr := deadlinesOK(g.pruned, g.aug, table); verr != nil {
					err = verr
				} else {
					return &Plan{
						Faults: fs, Pruned: g.pruned, Aug: g.aug,
						Assign: asn, Table: table, ShedSinks: shed,
					}, nil
				}
			}
		}
		lastErr = err
		next, ok := nextShedSink(s.base, shed)
		if !ok {
			return nil, fmt.Errorf("unschedulable even after shedding everything sheddable: %v", lastErr)
		}
		shed = append(shed, next)
	}
}

// prune removes the shed sinks and every task that only serves shed sinks.
// Returns nil if nothing remains.
func prune(base *flow.Graph, shedSinks []flow.TaskID) *flow.Graph {
	if len(shedSinks) == 0 {
		return base
	}
	dead := map[flow.TaskID]bool{}
	for _, s := range shedSinks {
		dead[s] = true
	}
	sinkOf := base.SinkOf()
	keep := map[flow.TaskID]bool{}
	for _, id := range base.TaskIDs() {
		alive := false
		for _, s := range sinkOf[id] {
			if !dead[s] {
				alive = true
				break
			}
		}
		if alive {
			keep[id] = true
		}
	}
	if len(keep) == 0 {
		return nil
	}
	g := flow.NewGraph(base.Name, base.Period)
	for _, id := range base.TaskIDs() {
		if keep[id] {
			g.AddTask(*base.Tasks[id])
		}
	}
	for _, e := range base.Edges {
		if keep[e.From] && keep[e.To] {
			g.Connect(e.From, e.To, e.Bytes)
		}
	}
	return g
}

// nextShedSink picks the least critical not-yet-shed sink (largest
// criticality letter, then largest WCET of its exclusive support group,
// then ID).
func nextShedSink(base *flow.Graph, already []flow.TaskID) (flow.TaskID, bool) {
	shed := map[flow.TaskID]bool{}
	for _, s := range already {
		shed[s] = true
	}
	var best flow.TaskID
	found := false
	for _, s := range base.Sinks() {
		if shed[s] {
			continue
		}
		if !found {
			best, found = s, true
			continue
		}
		bc, sc := base.Tasks[best].Crit, base.Tasks[s].Crit
		if sc > bc || (sc == bc && s < best) {
			best = s
		}
	}
	return best, found
}

// deadlinesOK checks both the augmented graph's own sinks (checkers) and
// the actuation deadlines of the original sinks' replicas.
func deadlinesOK(pruned, aug *flow.Graph, table *sched.Table) error {
	if vs := table.CheckDeadlines(aug); len(vs) != 0 {
		return fmt.Errorf("deadline violations: %v", vs[0])
	}
	for _, s := range pruned.Sinks() {
		dl := pruned.Tasks[s].Deadline
		for _, id := range aug.TaskIDs() {
			logical, _ := SplitReplica(id)
			if logical != s {
				continue
			}
			if f := table.Finish(id); f > dl {
				return fmt.Errorf("actuation deadline: replica %q finishes %v after %v", id, f, dl)
			}
		}
	}
	return nil
}

// TransitionBetween analyzes switching from plan a to plan b: which
// replicas move, how much state migrates, and the worst-case completion
// bound of the switch.
func TransitionBetween(a, b *Plan, topo *network.Topology, opts Options) Transition {
	return TransitionWithin(a, b, topo, opts, nil)
}

// TransitionWithin is TransitionBetween restricted to a membership (nil =
// every slot): state migration crosses the member-induced subgraph only,
// so per-epoch transition bounds reflect the active wiring.
func TransitionWithin(a, b *Plan, topo *network.Topology, opts Options, members []network.NodeID) Transition {
	moved := a.Assign.Diff(b.Assign)
	var bytes int64
	for _, id := range moved {
		if t, ok := b.Aug.Tasks[id]; ok {
			bytes += t.StateBytes
		}
	}
	// Also count tasks newly started on b (state must be initialized or
	// fetched from surviving replicas).
	for id := range b.Assign {
		if _, existed := a.Assign[id]; !existed {
			if t, ok := b.Aug.Tasks[id]; ok {
				bytes += t.StateBytes
			}
		}
	}
	minBW, maxProp, diam := topo.MinBandwidth(), topo.MaxProp(), topo.Diameter()
	if members != nil {
		in := memberFunc(members)
		minBW, maxProp, diam = topo.MinBandwidthWithin(in), topo.MaxPropWithin(in), topo.DiameterWithin(in)
	}
	if diam < 0 {
		diam = 0
	}
	// Worst-case transfer: all state crosses the slowest foreground
	// share sequentially plus one diameter of propagation. Conservative.
	capMin := network.ClassCapacity(minBW, opts.Sched.EvidenceShare, network.ClassForeground)
	transfer := network.TxTime(bytes, capMin) + sim.Time(diam)*maxProp
	return Transition{
		From: a.Key(), To: b.Key(),
		Moved: moved, StateBytes: bytes,
		Bound: transfer + b.Pruned.Period, // settle within one period after transfer
	}
}

// memberFunc adapts a member slice to the Topology *Within predicates.
func memberFunc(members []network.NodeID) func(network.NodeID) bool {
	in := make(map[network.NodeID]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	return func(n network.NodeID) bool { return in[n] }
}

// deriveBounds computes the strategy-wide timing constants.
func (s *Strategy) deriveBounds() {
	p := s.Base.Period
	// Commission faults: a bad record sent in period k is compared by
	// checkers/consumers within the same period; evidence exists by the
	// end of period k+1 in the worst case. Omission faults: conviction
	// needs OmissionThreshold distinct accusation paths; all consumer
	// replicas accuse within one period of the omission, so allow one
	// extra period for the attributor to cross its threshold.
	s.DetectBound = 2 * p
	if s.Opts.OmissionThreshold > s.Opts.F+1 {
		// Fewer accusers per period than the threshold needs: scale.
		extra := (s.Opts.OmissionThreshold + s.Opts.F) / (s.Opts.F + 1)
		s.DetectBound = sim.Time(1+extra) * p
	}

	// Evidence flooding: per hop, the message serializes on the evidence
	// share of the slowest link, propagates, and is verified before
	// being forwarded. Worst case crosses the diameter. All three metrics
	// come from the member-induced subgraph when the strategy is
	// membership-restricted: dormant slots carry no traffic.
	minBW, maxProp, d := s.Topo.MinBandwidth(), s.Topo.MaxProp(), s.Topo.Diameter()
	if s.Members != nil {
		in := memberFunc(s.Members)
		minBW, maxProp, d = s.Topo.MinBandwidthWithin(in), s.Topo.MaxPropWithin(in), s.Topo.DiameterWithin(in)
	}
	evCap := int64(float64(minBW) * s.Opts.Sched.EvidenceShare)
	if evCap < 1 {
		evCap = 1
	}
	maxEv := s.maxEvidenceBytes()
	hop := network.TxTime(maxEv, evCap) + maxProp + s.Opts.Sched.VerifyCost*4
	if d < 1 {
		d = 1
	}
	s.DistributeBound = sim.Time(d)*hop + sim.Millisecond

	for _, tr := range s.Trans {
		if tr.Bound > s.SwitchBound {
			s.SwitchBound = tr.Bound
		}
	}
	s.Delta = s.DistributeBound
	// Activation rounds up to a period boundary (+P), then the switch
	// completes within SwitchBound.
	s.RNeeded = s.DetectBound + s.Delta + p + s.SwitchBound
}

// maxEvidenceBytes bounds the wire size of any evidence this workload can
// produce (wrong-output proofs carry one envelope per logical input).
func (s *Strategy) maxEvidenceBytes() int64 {
	var maxIn int
	var maxBytes int64
	for _, id := range s.Base.TaskIDs() {
		if n := len(s.Base.Inputs(id)); n > maxIn {
			maxIn = n
		}
		for _, e := range s.Base.Outputs(id) {
			if e.Bytes > maxBytes {
				maxBytes = e.Bytes
			}
		}
	}
	return 2*(maxBytes+recordOverhead+envelopeOverhead) +
		int64(maxIn)*(maxBytes+recordOverhead+2*envelopeOverhead) + 64
}

// PlanFor returns the plan for the given fault set. A membership epoch's
// strategy ignores convictions of slots outside Members (every plan
// excludes them). If the exact set is not covered (more than F faults
// suspected), it falls back to the largest covered subset — the BTR
// guarantee is void beyond F faults, but the system should still do
// something sensible.
func (s *Strategy) PlanFor(fs FaultSet) *Plan {
	if p, ok := s.Plans[fs.Key()]; ok {
		return p
	}
	nodes := fs.Nodes()
	if s.Members != nil {
		nodes = slices.DeleteFunc(slices.Clone(nodes), func(n network.NodeID) bool {
			return !slices.Contains(s.Members, n)
		})
	}
	for len(nodes) > s.Opts.F {
		nodes = nodes[:len(nodes)-1]
	}
	for len(nodes) >= 0 {
		if p, ok := s.Plans[NewFaultSet(nodes...).Key()]; ok {
			return p
		}
		if len(nodes) == 0 {
			break
		}
		nodes = nodes[:len(nodes)-1]
	}
	return s.Plans[""]
}

// Summary renders a human-readable strategy overview: the derived
// bounds, one line per mode, the worst-case transition into every
// successor mode, and each mode's per-node slot table.
func (s *Strategy) Summary() string {
	keys := make([]string, 0, len(s.Plans))
	for k := range s.Plans {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int {
		if len(a) != len(b) {
			return cmp.Compare(len(a), len(b))
		}
		return strings.Compare(a, b)
	})
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %d plans, F=%d, R requested %v, R achieved %v (feasible=%v)\n",
		len(s.Plans), s.Opts.F, s.Opts.R, s.RNeeded, s.RFeasible())
	fmt.Fprintf(&b, "  detect<=%v distribute<=%v switch<=%v delta=%v\n",
		s.DetectBound, s.DistributeBound, s.SwitchBound, s.Delta)
	for _, k := range keys {
		p := s.Plans[k]
		_, maxU := p.Table.MaxUtilization()
		fmt.Fprintf(&b, "  mode %-12s tasks=%-3d shed=%v maxUtil=%.2f\n",
			p.Faults.String(), len(p.Aug.Tasks), p.ShedSinks, maxU)
	}
	b.WriteString("transitions (worst-case per successor mode):\n")
	for _, k := range keys {
		if tr, ok := s.Trans[k]; ok {
			fmt.Fprintf(&b, "  -> {%s}: from {%s}, %d replicas move, %dB state, bound %v\n",
				tr.To, tr.From, len(tr.Moved), tr.StateBytes, tr.Bound)
		}
	}
	b.WriteString("per-mode schedules:\n")
	for _, k := range keys {
		p := s.Plans[k]
		fmt.Fprintf(&b, "  mode %v:\n", p.Faults)
		for n, slots := range p.Table.Slots {
			if len(slots) == 0 {
				continue
			}
			fmt.Fprintf(&b, "    node %d:", n)
			for _, slot := range slots {
				fmt.Fprintf(&b, " %s[%v,%v)", slot.Task, slot.Start, slot.End)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
