// Package core assembles a complete BTR deployment — workload, topology,
// offline strategy, per-node runtimes, and the correctness monitor — and
// turns runs into Reports.
//
// Assemble is the one deployment builder: it is parameterised by the
// executor (sim.Scheduler + network.Transport), so the discrete-event
// simulator (NewSystem) and the wall-clock live mode (internal/live) build,
// inject, and judge a deployment through the very same code.
//
// The monitor operationalizes Definition 3.1: the system's outputs (first
// actuation command per logical sink per period) are compared against an
// oracle ("the outputs of a system in which all nodes are correct") and
// checked against their deadlines by a Plant; the resulting per-sink
// correctness timelines yield measured recovery intervals that experiments
// compare with the strategy's provable bound R.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/member"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plan/cache"
	"btr/internal/runtime"
	"btr/internal/sig"
	"btr/internal/sim"
)

// Oracle returns the expected (correct) output value for a sink at a
// period.
type Oracle func(sink flow.TaskID, period uint64) []byte

// Config describes one deployment.
type Config struct {
	Seed     uint64
	Workload *flow.Graph
	Topology *network.Topology
	PlanOpts plan.Options
	Net      network.Config

	// PlanCache, when set with Members, is the epoch planner's plan
	// cache: deployments that share it reuse each other's solved epoch
	// plans (C6's warm churn replans nothing). Without Members it is
	// unused.
	PlanCache *cache.Cache
	// Strategies, when Members is unset, builds the strategy through a
	// run-scoped memo: deployments of one planning context share one
	// plan.Build result, the very plans a fresh build makes. Either way
	// every node maps its fault set to a plan through the strategy's
	// PlanFor.
	Strategies *plan.Memo

	// Members, when non-nil, enables online membership reconfiguration:
	// Topology becomes the slot *universe*, the listed slots form the
	// genesis epoch's active membership (pass every slot to start full),
	// and Reconfigure schedules join/retire/replace epochs at runtime.
	// All epoch planning runs through the incremental plan engine
	// (PlanCache if set, else a private cache). nil keeps the classic
	// static deployment, byte-for-byte.
	Members []network.NodeID

	// Optional semantic overrides (plants install their own).
	Compute runtime.TaskFunc
	Source  runtime.SourceFunc
	Oracle  Oracle

	// Horizon is the number of periods to run.
	Horizon uint64

	// EvidenceRateLimit forwards to the runtime (0 = default).
	EvidenceRateLimit int

	// ForgiveAfter forwards to the runtime: non-zero puts convictions on
	// a parole clock and enables the over-budget / reconciled verdicts
	// that feed Report.Degraded (the high-fault-rate regime,
	// internal/faultrate). 0 keeps the classic append-only fault set.
	ForgiveAfter sim.Time

	// OnActuation, if set, observes every actuation command (a physical
	// plant subscribes here; it should apply first-command-per-period
	// semantics itself, as plant.Loop.Apply does).
	OnActuation runtime.ActuationFunc
	// OnEvidence and OnSwitch, if set, receive the evidence and mode
	// switch events after the Report has folded them (Report.Observe).
	// They are kept for benchmark/, which streams through them.
	OnEvidence func(node network.NodeID, ev evidence.Evidence, at sim.Time)
	OnSwitch   func(node network.NodeID, from, to string, at sim.Time)
}

// Deployment is an assembled deployment on some executor, ready to start.
type Deployment struct {
	Cfg      Config
	Registry *sig.Registry
	Strategy *plan.Strategy
	Runtime  *runtime.System
	// MemberPlanner is the epoch planner backing this deployment (nil
	// unless Config.Members was set).
	MemberPlanner *member.Planner

	sched sim.Scheduler
	net   network.Transport
	plant *Plant
}

// System is a deployment on the discrete-event kernel and simulated
// network.
type System struct {
	*Deployment
	Kernel *sim.Kernel
	Net    *network.Network
}

// Report aggregates everything a run measured.
type Report struct {
	Horizon    sim.Time
	Period     sim.Time
	PerSink    map[flow.TaskID]*metrics.Timeline
	FaultTimes []sim.Time

	Actuations    int
	WrongValues   int
	MissedPeriods int

	EvidenceByKind  map[evidence.Kind]int
	FirstEvidenceAt sim.Time
	SwitchTimes     []sim.Time
	NetStats        network.Stats
	RNeeded         sim.Time

	// Epochs records every membership reconfiguration the run performed
	// (empty without Config.Members; rejected proposals appear with Err
	// set), folded from the epoch events. EpochReplans is the total
	// number of plan syntheses the epoch planner performed — near zero
	// on a warm cache.
	Epochs       []EpochRow
	EpochReplans uint64

	// Degraded lists the windows during which at least one node had
	// declared itself over budget (signed KindOverBudget verdict without
	// a matching KindReconciled yet) — the spans where the recovery
	// guarantee is suspended-but-flagged rather than live. A window still
	// open at the horizon is closed there. Empty without
	// Config.ForgiveAfter.
	Degraded []metrics.Interval

	// degradedBy and degradedAt are the fold's open degraded window:
	// which reporters have an open over-budget declaration, and when the
	// window opened. The flood bound Delta is far below the gap between a
	// reporter's consecutive capacity crossings (≥ one period), so first
	// observations arrive in emission order.
	degradedBy map[network.NodeID]bool
	degradedAt sim.Time
}

// EpochRow is one membership epoch's lifecycle, folded from the epoch
// events. A rejected proposal leaves a row with Err set and no
// activation.
type EpochRow struct {
	Num         uint64
	Members     string
	ProposedAt  sim.Time
	CommittedAt sim.Time
	ActivatedAt sim.Time
	Acks        int
	R           sim.Time // the epoch strategy's provable recovery bound
	Err         string   // rejection reason, "" for a healthy epoch
}

// SwitchLatency returns propose-to-activate latency (the epoch-switch
// latency the verdict bundle tracks), or 0 if the epoch never activated.
func (e EpochRow) SwitchLatency() sim.Time {
	if e.ActivatedAt == 0 {
		return 0
	}
	return e.ActivatedAt - e.ProposedAt
}

// Observe folds one runtime event into the report: evidence counts and
// degraded windows, mode switch times and epoch rows. Every executor
// feeds it the same stream: Assemble's observer in process, the
// orchestrator from its node processes' event lines.
func (r *Report) Observe(ev runtime.Event) {
	switch ev.Kind {
	case runtime.EvidenceAccepted:
		r.observeEvidence(ev)
	case runtime.ModeSwitch:
		r.SwitchTimes = append(r.SwitchTimes, ev.At)
	case runtime.EpochProposed:
		r.Epochs = append(r.Epochs, EpochRow{Num: ev.Epoch, ProposedAt: ev.At})
	case runtime.EpochRejected:
		// Rejected at commit: the open proposal's row takes the error. A
		// proposal rejected outright never opened one: it gets its own.
		if row := r.epochRow(ev.Epoch); row.Num == ev.Epoch && row.Err == "" {
			row.Err = ev.Err
		} else {
			r.Epochs = append(r.Epochs, EpochRow{Num: ev.Epoch, ProposedAt: ev.At, Err: ev.Err})
		}
	case runtime.EpochAck:
		r.epochRow(ev.Epoch).Acks = ev.Acks
	case runtime.EpochCommitted:
		r.epochRow(ev.Epoch).CommittedAt = ev.At
	case runtime.EpochActivated:
		row := r.epochRow(ev.Epoch)
		row.ActivatedAt, row.R, row.Members = ev.At, ev.R, ev.Members
	}
}

// epochRow returns the newest row for epoch num, or a detached zero row
// when num was never proposed. A number reappears only after a
// rejection, and epochs are proposed one at a time, so when a rejection
// arrives, a newest row without Err is the open proposal.
func (r *Report) epochRow(num uint64) *EpochRow {
	for i := len(r.Epochs) - 1; i >= 0; i-- {
		if r.Epochs[i].Num == num {
			return &r.Epochs[i]
		}
	}
	return &EpochRow{}
}

// observeEvidence counts one accepted evidence observation and tracks
// the degradation windows: a window opens on the first over-budget
// observation from a reporter and closes when every open declaration has
// been matched by a reconciled one.
func (r *Report) observeEvidence(ev runtime.Event) {
	r.EvidenceByKind[ev.EvidenceKind]++
	r.FirstEvidenceAt = min(r.FirstEvidenceAt, ev.At)
	switch ev.EvidenceKind {
	case evidence.KindOverBudget:
		if !r.degradedBy[ev.Reporter] {
			if len(r.degradedBy) == 0 {
				r.degradedAt = ev.At
			}
			r.degradedBy[ev.Reporter] = true
		}
	case evidence.KindReconciled:
		if r.degradedBy[ev.Reporter] {
			delete(r.degradedBy, ev.Reporter)
			if len(r.degradedBy) == 0 {
				r.Degraded = append(r.Degraded, metrics.Interval{Start: r.degradedAt, End: ev.At})
			}
		}
	}
}

// Close ends the fold at the horizon: a degraded window still open is
// closed there, so the unreconciled span is visible rather than dropped.
func (r *Report) Close() {
	if len(r.degradedBy) > 0 {
		r.Degraded = append(r.Degraded, metrics.Interval{Start: r.degradedAt, End: r.Horizon})
		clear(r.degradedBy)
	}
}

// RBoundFor returns the recovery bound to hold a fault at time t
// against: the largest R among the epochs whose activity window
// overlaps [t, end] (genesis included). With no epochs it is RNeeded.
// Epoch i is active from its ActivatedAt until the next activation;
// genesis covers [0, first activation).
func (r *Report) RBoundFor(t, end sim.Time) sim.Time {
	var bound sim.Time
	prevStart, prevR := sim.Time(0), r.RNeeded
	for _, e := range r.Epochs {
		if e.ActivatedAt == 0 {
			continue
		}
		if prevStart <= end && t <= e.ActivatedAt && prevR > bound {
			bound = prevR
		}
		prevStart, prevR = e.ActivatedAt, e.R
	}
	if prevStart <= end && prevR > bound {
		bound = prevR
	}
	if bound == 0 {
		bound = r.RNeeded // no window overlapped (degenerate [t,end])
	}
	return bound
}

// MaxEpochR returns the largest provable recovery bound across every
// epoch of the run (RNeeded without epochs).
func (r *Report) MaxEpochR() sim.Time {
	bound := r.RNeeded
	for _, e := range r.Epochs {
		if e.ActivatedAt != 0 {
			bound = max(bound, e.R)
		}
	}
	return bound
}

// Assemble validates the config, runs the offline planner, builds the
// executor with exec, and wires the runtime and the plant's per-period
// deadline checks onto it. Nothing moves until the caller starts the
// runtime and the executor.
func Assemble(cfg Config, exec func(Config) (sim.Scheduler, network.Transport)) (*Deployment, error) {
	if cfg.Horizon == 0 {
		cfg.Horizon = 40
	}
	if cfg.Net.EvidenceShare == 0 && cfg.Net.LossProb == 0 {
		cfg.Net = network.DefaultConfig()
	}
	d := &Deployment{Cfg: cfg}
	var epochCfg *runtime.EpochConfig
	if cfg.Members != nil {
		// Membership epochs: all planning goes through the epoch planner
		// (which shares PlanCache when provided).
		d.MemberPlanner = member.NewPlanner(cfg.Workload, cfg.PlanOpts, cfg.PlanCache)
		genesis := member.Genesis(cfg.Members)
		glog, err := member.NewLog(cfg.Topology, genesis)
		if err != nil {
			return nil, fmt.Errorf("core: invalid initial membership: %w", err)
		}
		ep0, err := d.MemberPlanner.ForEpoch(genesis, glog.Wiring())
		if err != nil {
			return nil, fmt.Errorf("core: planning failed: %w", err)
		}
		d.Strategy = ep0.Strategy
		epochCfg = &runtime.EpochConfig{Genesis: genesis, Planner: d.MemberPlanner}
	} else {
		var err error
		if d.Strategy, err = cfg.Strategies.Build(cfg.Workload, cfg.Topology, cfg.PlanOpts); err != nil {
			return nil, fmt.Errorf("core: planning failed: %w", err)
		}
	}
	d.sched, d.net = exec(cfg)
	d.Registry = sig.NewRegistry(cfg.Seed, cfg.Topology.N)

	source := cfg.Source
	if source == nil {
		source = evidence.AppendSourceValue
	}
	oracle := cfg.Oracle
	if oracle == nil {
		oracle = hashOracle(cfg.Workload, source)
	}
	d.plant = NewPlant(cfg.Workload, cfg.Horizon, d.Strategy.RNeeded, oracle)
	rep := d.plant.Report()
	d.Runtime = runtime.New(runtime.Config{
		Kernel: d.sched, Net: d.net, Registry: d.Registry, Strategy: d.Strategy, Epochs: epochCfg,
		Compute: cfg.Compute, Source: source,
		EvidenceRateLimit: cfg.EvidenceRateLimit,
		ForgiveAfter:      cfg.ForgiveAfter,
		OnActuation: func(node network.NodeID, sink flow.TaskID, period uint64, value []byte, at sim.Time) {
			if cfg.OnActuation != nil {
				cfg.OnActuation(node, sink, period, value, at)
			}
			d.plant.Actuate(sink, period, value, at)
		},
		Observer: func(ev runtime.Event) {
			rep.Observe(ev)
			switch {
			case ev.Kind == runtime.EvidenceAccepted && cfg.OnEvidence != nil:
				cfg.OnEvidence(ev.Node, ev.Evidence, ev.At)
			case ev.Kind == runtime.ModeSwitch && cfg.OnSwitch != nil:
				cfg.OnSwitch(ev.Node, ev.From, ev.To, ev.At)
			}
		},
	})

	// Schedule the per-period deadline checks for every sink, on the same
	// executor as everything else so they serialize with actuations;
	// presence at the deadline event is the cutoff.
	period := cfg.Workload.Period
	sinks := cfg.Workload.Sinks()
	for p := uint64(0); p < cfg.Horizon; p++ {
		p := p
		for _, sk := range sinks {
			sk := sk
			deadline := sim.Time(p)*period + cfg.Workload.Tasks[sk].Deadline
			d.sched.At(deadline, func() { d.plant.Judge(sk, p, deadline, sim.Never) })
		}
	}
	return d, nil
}

// NewSystem assembles the deployment on a fresh simulation kernel and
// simulated network. It does not start the clock; install faults, then
// call Run.
func NewSystem(cfg Config) (*System, error) {
	s := &System{}
	d, err := Assemble(cfg, func(cfg Config) (sim.Scheduler, network.Transport) {
		s.Kernel = sim.NewKernel(cfg.Seed)
		s.Net = network.New(s.Kernel, cfg.Topology, cfg.Net)
		return s.Kernel, s.Net
	})
	if err != nil {
		return nil, err
	}
	s.Deployment = d
	return s, nil
}

// InjectAt schedules a fault injection and records its time for recovery
// attribution. The callback receives the runtime to install behaviors or
// crashes.
func (d *Deployment) InjectAt(t sim.Time, f func(*runtime.System)) {
	d.plant.rep.FaultTimes = append(d.plant.rep.FaultTimes, t)
	d.RepairAt(t, f)
}

// RepairAt schedules a repair. A repair is not a fault: nothing is
// recorded for recovery attribution.
func (d *Deployment) RepairAt(t sim.Time, f func(*runtime.System)) {
	d.sched.At(t, func() { f(d.Runtime) })
}

// Reconfigure schedules a membership reconfiguration (join / retire /
// replace, with optional link delta) to be proposed at time t. Requires
// Config.Members.
func (d *Deployment) Reconfigure(t sim.Time, delta member.Delta) {
	d.Runtime.ScheduleReconfig(t, delta)
}

// Finish completes the report once the executor has stopped: the fold
// is closed at the horizon (Report.Close), and the transport counters
// and the epoch planner's replans are filled in.
func (d *Deployment) Finish() *Report {
	rep := d.plant.rep
	rep.Close()
	rep.NetStats = d.net.Snapshot()
	if d.MemberPlanner != nil {
		rep.EpochReplans = d.MemberPlanner.Replans()
	}
	return rep
}

// Run starts the runtime and simulates the configured horizon, returning
// the report.
func (s *System) Run() *Report {
	s.Runtime.Start()
	s.Kernel.Run(s.plant.rep.Horizon)
	return s.Finish()
}

// HashOracle builds the default oracle by recursively evaluating the base
// dataflow graph on the (deterministic) environment samples source
// returns.
func HashOracle(g *flow.Graph, source func(task flow.TaskID, period uint64) []byte) Oracle {
	return hashOracle(g, func(dst []byte, task flow.TaskID, p uint64) []byte {
		return append(dst, source(task, p)...)
	})
}

// hashOracle is HashOracle on the append form of the source. Every value
// is computed into an arena of its own: a chunk holds many values, each
// capacity-capped and never written again. One input buffer serves every
// evaluation, since a task's inputs are evaluated before it is filled.
func hashOracle(g *flow.Graph, source runtime.SourceFunc) Oracle {
	memo := map[taskPeriod][]byte{}
	var ins []evidence.Record
	var arena []byte
	var eval func(task flow.TaskID, p uint64) []byte
	eval = func(task flow.TaskID, p uint64) []byte {
		k := taskPeriod{task, p}
		if v, ok := memo[k]; ok {
			return v
		}
		for _, e := range g.Inputs(task) {
			eval(e.From, p)
		}
		if cap(arena)-len(arena) < 64 {
			arena = make([]byte, 0, 4096)
		}
		from := len(arena)
		if g.Tasks[task].Source {
			arena = source(arena, task, p)
		} else {
			ins = ins[:0]
			for _, e := range g.Inputs(task) {
				ins = append(ins, evidence.Record{Logical: e.From, Value: memo[taskPeriod{e.From, p}]})
			}
			arena = evidence.AppendHashCompute(arena, task, p, ins)
		}
		v := arena[from:len(arena):len(arena)]
		memo[k] = v
		return v
	}
	return func(sink flow.TaskID, p uint64) []byte { return eval(sink, p) }
}

// --- Report analysis -------------------------------------------------------

// BadIntervals returns the merged intervals during which any of the given
// sinks (all sinks if none specified) produced incorrect output.
func (r *Report) BadIntervals(sinks ...flow.TaskID) []metrics.Interval {
	if len(sinks) == 0 {
		for sk := range r.PerSink {
			sinks = append(sinks, sk)
		}
		slices.Sort(sinks)
	}
	var all []metrics.Interval
	for _, sk := range sinks {
		if tl := r.PerSink[sk]; tl != nil {
			all = append(all, tl.FalseIntervals(r.Horizon)...)
		}
	}
	return MergeIntervals(all)
}

// Recoveries pairs the run's fault injections with the bad intervals of
// the given sinks (all if none).
func (r *Report) Recoveries(sinks ...flow.TaskID) []metrics.Recovery {
	return metrics.MatchRecoveries(append([]sim.Time(nil), r.FaultTimes...), r.BadIntervals(sinks...))
}

// MaxRecovery returns the worst measured recovery over the given sinks.
func (r *Report) MaxRecovery(sinks ...flow.TaskID) sim.Time {
	var max sim.Time
	for _, rec := range r.Recoveries(sinks...) {
		if rec.Duration() > max {
			max = rec.Duration()
		}
	}
	return max
}

// WithinBound reports whether every measured recovery met the strategy's
// provable bound R.
func (r *Report) WithinBound() bool { return r.MaxRecovery() <= r.RNeeded }

// Violations is the recovery rule of a run of at most f faults, one
// line per breach: bad output that starts before the first fault (any
// bad output at all when no fault was injected) is not attributable and
// must not be laundered by recovery accounting, and the worst measured
// recovery must meet the largest epoch bound (RNeeded without epochs).
// Empty means the run held R.
func (r *Report) Violations() []string {
	first := sim.Never
	for _, t := range r.FaultTimes {
		first = min(first, t)
	}
	var out []string
	for _, iv := range r.BadIntervals() {
		if iv.Start < first {
			out = append(out, fmt.Sprintf("spurious bad output %v (not attributable to an injected fault)", iv))
		}
	}
	if max, bound := r.MaxRecovery(), r.MaxEpochR(); max > bound {
		out = append(out, fmt.Sprintf("recovery %v vs R=%v (missed=%d wrong=%d)", max, bound, r.MissedPeriods, r.WrongValues))
	}
	return out
}

// TotalBadTime sums incorrect-output time across the given sinks' merged
// intervals.
func (r *Report) TotalBadTime(sinks ...flow.TaskID) sim.Time {
	var sum sim.Time
	for _, iv := range r.BadIntervals(sinks...) {
		sum += iv.Duration()
	}
	return sum
}

// EvidenceTotal counts all evidence observations.
func (r *Report) EvidenceTotal() int {
	n := 0
	for _, c := range r.EvidenceByKind {
		n += c
	}
	return n
}

// MergeIntervals merges overlapping/adjacent intervals into a minimal
// sorted set.
func MergeIntervals(ivs []metrics.Interval) []metrics.Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := append([]metrics.Interval(nil), ivs...)
	slices.SortFunc(sorted, func(a, b metrics.Interval) int { return cmp.Compare(a.Start, b.Start) })
	out := []metrics.Interval{sorted[0]}
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
