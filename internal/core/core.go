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
	"fmt"
	"sort"

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

	// PlanCache, when set, builds the strategy through the incremental
	// plan engine instead of plan.Build — solved plans are memoized in
	// (and reused from) the given cache across deployments — and wires
	// the engine into the runtime so node failover consults the cache
	// before any synthesis.
	PlanCache *cache.Cache

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
	// OnEvidence and OnSwitch, if set, observe evidence acceptance and
	// mode switches (for streaming progress; report counters are kept
	// either way).
	OnEvidence runtime.EvidenceFunc
	OnSwitch   runtime.SwitchFunc
}

// Deployment is an assembled deployment on some executor, ready to start.
type Deployment struct {
	Cfg      Config
	Registry *sig.Registry
	Strategy *plan.Strategy
	Runtime  *runtime.System
	// PlanEngine is the incremental plan engine backing this deployment
	// (nil unless Config.PlanCache was set); tests and tools read its
	// Stats.
	PlanEngine *cache.Engine
	// MemberPlanner is the epoch planner backing this deployment (nil
	// unless Config.Members was set).
	MemberPlanner *member.Planner

	sched sim.Scheduler
	net   network.Transport
	plant *Plant

	// Degradation tracking (high-fault-rate regime): which reporters have
	// an open over-budget declaration, and when the current globally
	// degraded window opened. The flood bound Delta is far below the gap
	// between a reporter's consecutive capacity crossings (≥ one period),
	// so first observations arrive in emission order.
	degradedBy map[network.NodeID]bool
	degradedAt sim.Time
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
	SinkCrit   map[flow.TaskID]flow.Criticality
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
	// set). EpochReplans is the total number of plan syntheses the epoch
	// planner performed — near zero on a warm cache.
	Epochs       []EpochRow
	EpochReplans uint64

	// Degraded lists the windows during which at least one node had
	// declared itself over budget (signed KindOverBudget verdict without
	// a matching KindReconciled yet) — the spans where the recovery
	// guarantee is suspended-but-flagged rather than live. A window still
	// open at the horizon is closed there. Empty without
	// Config.ForgiveAfter.
	Degraded []metrics.Interval
}

// EpochRow is one membership epoch's lifecycle measurements (recorded
// by the runtime operator).
type EpochRow = runtime.EpochRow

// RBoundFor returns the recovery bound to hold a fault at time t
// against: the largest R among the epochs whose activity window
// overlaps [t, end] (genesis included). With no epochs it is RNeeded.
func (r *Report) RBoundFor(t, end sim.Time) sim.Time {
	return runtime.EpochRBound(r.RNeeded, r.Epochs, t, end)
}

// MaxEpochR returns the largest provable recovery bound across every
// epoch of the run (RNeeded without epochs).
func (r *Report) MaxEpochR() sim.Time {
	return runtime.EpochMaxR(r.RNeeded, r.Epochs)
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
	d := &Deployment{Cfg: cfg, degradedBy: map[network.NodeID]bool{}}
	var planner runtime.PlanSource
	var epochCfg *runtime.EpochConfig
	var err error
	switch {
	case cfg.Members != nil:
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
		d.Strategy, planner = ep0.Strategy, ep0.Resolve
		epochCfg = &runtime.EpochConfig{Genesis: genesis, Resolve: runtime.PlannerResolve(d.MemberPlanner)}
	case cfg.PlanCache != nil:
		d.PlanEngine = cache.NewEngine(cfg.Workload, cfg.Topology, cfg.PlanOpts, cfg.PlanCache)
		if d.Strategy, err = d.PlanEngine.BuildStrategy(); err != nil {
			return nil, fmt.Errorf("core: planning failed: %w", err)
		}
		planner = d.PlanEngine.Resolve
	default:
		if d.Strategy, err = plan.Build(cfg.Workload, cfg.Topology, cfg.PlanOpts); err != nil {
			return nil, fmt.Errorf("core: planning failed: %w", err)
		}
	}
	d.sched, d.net = exec(cfg)
	d.Registry = sig.NewRegistry(cfg.Seed, cfg.Topology.N)

	source := cfg.Source
	if source == nil {
		source = evidence.SourceValue
	}
	oracle := cfg.Oracle
	if oracle == nil {
		oracle = HashOracle(cfg.Workload, source)
	}
	d.plant = NewPlant(cfg.Workload, cfg.Horizon, d.Strategy.RNeeded, oracle)
	rep := d.plant.Report()
	d.Runtime = runtime.New(runtime.Config{
		Kernel: d.sched, Net: d.net, Registry: d.Registry, Strategy: d.Strategy, Planner: planner, Epochs: epochCfg,
		Compute: cfg.Compute, Source: source,
		EvidenceRateLimit: cfg.EvidenceRateLimit,
		ForgiveAfter:      cfg.ForgiveAfter,
		OnActuation: func(node network.NodeID, sink flow.TaskID, period uint64, value []byte, at sim.Time) {
			rep.Actuations++
			if cfg.OnActuation != nil {
				cfg.OnActuation(node, sink, period, value, at)
			}
			d.plant.Actuate(sink, period, value, at)
		},
		OnEvidence: func(node network.NodeID, ev evidence.Evidence, at sim.Time) {
			d.observeEvidence(ev, at)
			if cfg.OnEvidence != nil {
				cfg.OnEvidence(node, ev, at)
			}
		},
		OnSwitch: func(node network.NodeID, from, to string, at sim.Time) {
			rep.SwitchTimes = append(rep.SwitchTimes, at)
			if cfg.OnSwitch != nil {
				cfg.OnSwitch(node, from, to, at)
			}
		},
	})

	// Schedule the per-period deadline checks for every sink, on the same
	// executor as everything else so they serialize with actuations;
	// presence at the deadline event is the cutoff.
	period := cfg.Workload.Period
	for p := uint64(0); p < cfg.Horizon; p++ {
		p := p
		for _, sk := range cfg.Workload.Sinks() {
			sk := sk
			deadline := sim.Time(p)*period + cfg.Workload.Tasks[sk].Deadline
			d.sched.At(deadline, func() { d.plant.Judge(sk, p, deadline, sim.Never) })
		}
	}
	return d, nil
}

// observeEvidence counts one accepted evidence observation and tracks
// the degradation windows: a window opens on the first over-budget
// observation from a reporter and closes when every open declaration has
// been matched by a reconciled one.
func (d *Deployment) observeEvidence(ev evidence.Evidence, at sim.Time) {
	rep := d.plant.rep
	rep.EvidenceByKind[ev.Kind]++
	if at < rep.FirstEvidenceAt {
		rep.FirstEvidenceAt = at
	}
	switch ev.Kind {
	case evidence.KindOverBudget:
		if !d.degradedBy[ev.Reporter] {
			if len(d.degradedBy) == 0 {
				d.degradedAt = at
			}
			d.degradedBy[ev.Reporter] = true
		}
	case evidence.KindReconciled:
		if d.degradedBy[ev.Reporter] {
			delete(d.degradedBy, ev.Reporter)
			if len(d.degradedBy) == 0 {
				rep.Degraded = append(rep.Degraded, metrics.Interval{Start: d.degradedAt, End: at})
			}
		}
	}
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
	d.sched.At(t, func() { f(d.Runtime) })
}

// Reconfigure schedules a membership reconfiguration (join / retire /
// replace, with optional link delta) to be proposed at time t. Requires
// Config.Members.
func (d *Deployment) Reconfigure(t sim.Time, delta member.Delta) {
	d.Runtime.ScheduleReconfig(t, delta)
}

// Finish completes the report once the executor has stopped: a degraded
// window still open is closed at the horizon, and the transport counters
// and epoch rows are filled in.
func (d *Deployment) Finish() *Report {
	rep := d.plant.rep
	if len(d.degradedBy) > 0 {
		// Still degraded at the horizon: close the window there so the
		// unreconciled span is visible rather than dropped.
		rep.Degraded = append(rep.Degraded, metrics.Interval{Start: d.degradedAt, End: rep.Horizon})
		d.degradedBy = map[network.NodeID]bool{}
	}
	rep.NetStats = d.net.Snapshot()
	if d.MemberPlanner != nil {
		rep.EpochReplans = d.MemberPlanner.Replans()
		rep.Epochs = d.Runtime.EpochRows()
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
// dataflow graph on the (deterministic) environment samples.
func HashOracle(g *flow.Graph, source runtime.SourceFunc) Oracle {
	memo := map[taskPeriod][]byte{}
	var eval func(task flow.TaskID, p uint64) []byte
	eval = func(task flow.TaskID, p uint64) []byte {
		k := taskPeriod{task, p}
		if v, ok := memo[k]; ok {
			return v
		}
		t := g.Tasks[task]
		var v []byte
		if t.Source {
			v = source(task, p)
		} else {
			var ins []evidence.Record
			for _, e := range g.Inputs(task) {
				ins = append(ins, evidence.Record{Logical: e.From, Value: eval(e.From, p)})
			}
			v = evidence.HashCompute(task, p, ins)
		}
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
		sort.Slice(sinks, func(i, j int) bool { return sinks[i] < sinks[j] })
	}
	var all []metrics.Interval
	for _, sk := range sinks {
		if tl := r.PerSink[sk]; tl != nil {
			all = append(all, tl.FalseIntervals(r.Horizon)...)
		}
	}
	return MergeIntervals(all)
}

// SinksAtOrAbove lists the report's sinks with criticality c or higher.
func (r *Report) SinksAtOrAbove(c flow.Criticality) []flow.TaskID {
	var out []flow.TaskID
	for sk, crit := range r.SinkCrit {
		if crit <= c {
			out = append(out, sk)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
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
