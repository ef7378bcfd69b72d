// Package live boots BTR deployments on the wall clock: the same plan
// engine, detectors, evidence distribution, mode switcher and simulated
// network.Network that run under the discrete-event kernel execute here
// on a sim.WallScheduler. Nothing in the runtime changes between the two
// modes — that is the point: a live Deployment is assembled, injected and
// judged by core.Assemble exactly as a simulated core.System is, with
// only the executor swapped. One executor goroutine dispatches every
// event, message arrivals included, on one modeled timeline that the
// wall clock paces. The paper's claim is that bounded-time recovery is a
// *runtime* property; this package is where the claim meets real time:
// timer jitter and crypto that costs actual CPU, with recovery measured
// in wall-clock time against the strategy's provable bound R.
//
// A Deployment assembles everything, InjectAt and RepairAt schedule
// fault injections and repairs (an adversary.Script installs unchanged
// via adversary.Injector), and Run executes the configured horizon and
// returns a Report with measured wall-clock recovery intervals.
//
// The package also carries the multi-process deployment mode: one OS
// process per node over the real-socket network.TCPBus. RunNodeProc is
// the child side: one node slot, driven by plain-text commands on stdin,
// streaming JSON lines on stdout — control lines, its actuations, and
// every runtime.Event it observes. RunOrchestrator is the parent side:
// it spawns the node processes, folds their events into one Report, acts
// as the physical plant (a core.Plant), injects process-level faults
// (SIGKILL, SIGKILL-and-restart, SIGSTOP/SIGCONT, userspace partitions)
// alongside the in-process catalog, and judges measured recovery against
// the same provable bound R. MaybeRunNodeProc is the re-exec hook every
// orchestrating binary must call at startup.
package live

import (
	"sync"
	"time"

	"btr/internal/core"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// Oracle, Config and Report are core's: a live deployment is
// described, and its run reported, exactly as a simulated one. In Config
// the Horizon is real wall-clock time (Horizon × workload period); in a
// Report all times are wall-clock microseconds since the start.
type (
	Oracle = core.Oracle
	Config = core.Config
	Report = core.Report
)

// Deployment is an assembled live system ready to Run.
type Deployment struct {
	*core.Deployment
	Sched *sim.WallScheduler
	Net   *network.Network

	// drained closes when the end-of-horizon marker event fires — because
	// dispatch is in (time, insertion) order, every deadline check has
	// run by then even if the executor lags the wall clock.
	drained  chan struct{}
	startRun sync.Once
}

// New assembles the deployment: the simulated network on a wall
// scheduler. Nothing moves until Run.
func New(cfg Config) (*Deployment, error) {
	d := &Deployment{drained: make(chan struct{})}
	cd, err := core.Assemble(cfg, func(cfg Config) (sim.Scheduler, network.Transport) {
		d.Sched = sim.NewWallScheduler(cfg.Seed)
		d.Net = network.New(d.Sched, cfg.Topology, cfg.Net)
		return d.Sched, d.Net
	})
	if err != nil {
		return nil, err
	}
	d.Deployment = cd
	// End-of-horizon marker: it sorts after every deadline check, so when
	// it fires the run is fully measured.
	d.Sched.At(d.end(), func() { close(d.drained) })
	return d, nil
}

// end is the wall time of the end-of-horizon marker: one period past the
// horizon.
func (d *Deployment) end() sim.Time {
	return sim.Time(d.Cfg.Horizon+1) * d.Cfg.Workload.Period
}

// Run starts the executive, lets the deployment run its horizon of real
// wall-clock time, shuts everything down leak-free, and returns the
// report. Call it once.
func (d *Deployment) Run() *Report {
	d.startRun.Do(func() {
		d.Runtime.Start()
		d.Sched.Start()
	})
	// Wait for the in-order end-of-horizon marker rather than the raw
	// wall clock: even a lagging executor has run every deadline check by
	// the time it fires. The timeout is a hung-deployment backstop only.
	select {
	case <-d.drained:
	case <-time.After(time.Duration(d.end())*time.Microsecond + 30*time.Second):
	}
	d.Close()
	return d.Finish()
}

// Close stops dispatch and joins the executor, the one goroutine the
// deployment started. Idempotent; Run calls it automatically.
func (d *Deployment) Close() { d.Sched.Close() }

// FirstSinkNode returns the node hosting the earliest-finishing sink
// replica in the deployment's base plan (ties broken by lowest node ID)
// — the externally visible victim attack scripts target, because only
// the first-actuating replica's corruption shows up at the plant.
func FirstSinkNode(d *Deployment) network.NodeID {
	return VictimOf(d.Strategy)
}

// VictimOf is FirstSinkNode on a bare strategy — multi-process drivers
// (the orchestrator, per-node btrlive) compute the victim before any
// deployment exists.
func VictimOf(s *plan.Strategy) network.NodeID {
	return s.Plans[""].FirstSinkHost()
}
