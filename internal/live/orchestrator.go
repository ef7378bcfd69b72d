package live

// Orchestrated multi-process deployments: the parent half of proc.go.
// RunOrchestrator boots one OS process per node slot over the TCP
// transport, acts as the physical plant (first actuation command to
// arrive per (sink, period) wins), injects faults against real processes
// — the in-process behavior catalog via the victim's spec, plus
// process-level faults no simulator can express: SIGKILL (with optional
// supervised restart), SIGSTOP/SIGCONT stalls, and userspace partitions —
// and judges the run (judge.go) against the strategy's provable bound R.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"
	"syscall"
	"time"

	"btr/internal/adversary"
	"btr/internal/client"
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/runtime"
	"btr/internal/sim"
)

// ProcFaultKinds lists every fault an orchestrated deployment can
// inject: the whole adversary.Catalog (in-process behaviors are
// self-injected by the victim process; process-level faults are driven
// from here) plus "none". It reads the catalog at each call.
func ProcFaultKinds() []string { return append(adversary.Names(nil), "none") }

// StormFaultKinds lists the process-level faults — faults the
// orchestrator drives against a running process, so any number of them
// can share a schedule (the in-process behaviors are self-injected at
// spawn and cannot be scheduled concurrently). It reads the catalog at
// each call.
func StormFaultKinds() []string {
	return adversary.Names(func(b adversary.Behavior) bool { return b.Scope == adversary.Process })
}

// StormVerdict is the per-victim outcome of one schedule entry: the
// entry with its victim resolved, and its transport verdict.
type StormVerdict struct {
	adversary.Fault
	// ReconnectChecked is set for the kinds whose repair must be visible
	// at the transport (kill-restart, partition, stop); Reconnected then
	// reports that every witness link redialed and held (see rejoined).
	ReconnectChecked bool
	Reconnected      bool
}

// OrchestratorConfig describes one orchestrated multi-process run.
type OrchestratorConfig struct {
	// Exe is the node-process binary (re-executed with BTR_PROC_SPEC);
	// empty means the current executable.
	Exe string

	Topo    string // TopoKinds
	Nodes   int
	F       int
	Seed    uint64
	Period  sim.Time
	Margin  sim.Time
	Horizon uint64

	// Faults is the fault schedule: every entry is injected and
	// repaired on its own clock, so any number of process-level faults
	// (StormFaultKinds) can be active at once; an in-process behavior
	// rides its victim's spec and may only be the sole entry. Auto
	// victims (-1) go to the strategy victim first, then the lowest
	// untargeted slots. Empty is a soak. A schedule of at most F entries
	// is held to R; a longer one is a storm (see judge).
	Faults adversary.Script

	// Forgive is the deployment's parole clock
	// (runtime.Config.ForgiveAfter), threaded into every node spec.
	// Zero keeps classic mode: convictions never expire and no budget
	// verdicts are raised. Storms that push the fault set past f need
	// Forgive > 0 for the over-budget/degraded-window reporting the
	// storm verdict reads back.
	Forgive sim.Time

	// Clients, when positive, opens the client-facing register service
	// on every node process and drives that many concurrent client
	// sessions against the cluster for the judged run; the measured
	// client-visible SLO lands in ProcResult.SLO. OpsRate caps the
	// aggregate op rate in ops/sec (0 = closed loop).
	Clients int
	OpsRate float64

	// BarrierTimeout bounds the parent-side ready/up startup barriers.
	// A child that wedges before emitting its barrier line — a deadlock
	// before the listener is up, a debugger, a scheduler pathology —
	// must not hang the orchestrator until the hard timeout: on breach
	// every child is killed and the error names the nodes that never
	// reported. Zero means a generous default of 45s (the node-side
	// connectivity wait is bounded at 10s, so a healthy cluster is far
	// inside it).
	BarrierTimeout time.Duration

	// Verbose prints every node process's events (Event.String) to Log:
	// one merged cross-process timeline.
	Verbose bool
	// Log receives orchestration progress lines (nil = discard).
	Log io.Writer
}

// ProcResult is an orchestrated run's full outcome.
type ProcResult struct {
	// Report is the plant-judged recovery report, with the node
	// processes' events folded in (Report.Observe); its FaultTimes,
	// BadIntervals, Recoveries, and bound methods work exactly as for an
	// in-process Deployment. Its budget verdict counts,
	// EvidenceByKind[KindOverBudget] and [KindReconciled], say whether
	// a node flagged the degraded regime — the detect-and-apologize
	// signal a > f storm must raise.
	Report *Report
	// Victim is the strategy victim: it hosts the first-actuating sink
	// replica, like single-process btrlive, and auto-assigned (Node -1)
	// schedule entries target it first.
	Victim network.NodeID
	// Storm holds the per-victim verdicts of the fault schedule, one per
	// entry with its victim resolved.
	Storm []StormVerdict
	// Events is the merged event stream of every node process (killed
	// incarnations included), in arrival order; Report is its fold.
	Events []runtime.Event
	// The first fault and ConfineEnd bound the window in which bad
	// output is fault-attributable; Confined reports whether every bad
	// interval of the plant report lies inside it (no damage before the
	// first fault, none past the last repair + parole + R + slack).
	ConfineEnd sim.Time
	Confined   bool
	// Dones maps node ID to its final done event (absent for a process
	// that was killed and not restarted); Exits maps node ID to its exit
	// error string ("" = clean).
	Dones map[int]ProcEvent
	Exits map[int]string
	// SLO is the client-visible report of the load generator (nil unless
	// OrchestratorConfig.Clients > 0): latency quantiles, error counts,
	// and the longest client-observed unavailability window, measured
	// through whatever faults the run injected. SLOBound is the longest
	// client-visible unavailability the run may show.
	SLO      *client.SLOReport
	SLOBound time.Duration
	// Violations lists, one line each, every way the run broke its
	// promise (see judge); empty means it held.
	Violations []string
}

// procMsg is one child event or exit on the orchestrator's merged stream.
type procMsg struct {
	node int
	ev   *ProcEvent // nil for process exit
	err  error      // exit status (exit messages only)
	at   time.Time
}

// nodeProc is one spawned node process.
type nodeProc struct {
	id  int
	cmd *exec.Cmd
	in  io.WriteCloser
}

func (p *nodeProc) send(line string) {
	if p.in != nil {
		fmt.Fprintln(p.in, line)
	}
}

func (p *nodeProc) signal(sig syscall.Signal) {
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Signal(sig)
	}
}

// spawnNodeProc starts exe as the node described by spec and streams its
// stdout events (and, last, its exit) into events. The first line the
// process writes to stderr (its fatal line, or a panic's) rides in its
// exit error.
func spawnNodeProc(exe string, spec ProcSpec, events chan<- procMsg) (*nodeProc, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), ProcSpecEnv+"="+string(raw))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &nodeProc{id: spec.Node, cmd: cmd, in: stdin}
	go func() {
		dec := json.NewDecoder(stdout)
		for {
			var ev ProcEvent
			if err := dec.Decode(&ev); err != nil {
				break
			}
			events <- procMsg{node: spec.Node, ev: &ev, at: time.Now()}
		}
		err := cmd.Wait() // returns once stderr is fully copied
		if line, _, _ := strings.Cut(stderr.String(), "\n"); err != nil && line != "" {
			err = fmt.Errorf("%w: %s", err, line)
		}
		events <- procMsg{node: spec.Node, err: err, at: time.Now()}
	}()
	return p, nil
}

// awaitBarrier collects one ev report from each of n nodes, handing every
// report to on. A node exit, the barrier timeout or the hard timeout ends
// the wait with an error naming the stragglers; the caller kills them.
func awaitBarrier(events <-chan procMsg, n int, ev string, barrier, hard <-chan time.Time,
	barrierDur time.Duration, on func(procMsg)) error {
	reported := map[int]bool{}
	for len(reported) < n {
		select {
		case m := <-events:
			switch {
			case m.ev == nil:
				return fmt.Errorf("live: node %d exited before %s: %v", m.node, ev, m.err)
			case m.ev.Ev == ev:
				reported[m.node] = true
				on(m)
			}
		case <-barrier:
			var missing []int
			for i := 0; i < n; i++ {
				if !reported[i] {
					missing = append(missing, i)
				}
			}
			return fmt.Errorf("live: %s barrier timed out after %v — nodes %v never reported %s (killed)",
				ev, barrierDur, missing, ev)
		case <-hard:
			return fmt.Errorf("live: timed out at the %s barrier", ev)
		}
	}
	return nil
}

// RunOrchestrator runs one orchestrated multi-process deployment end to
// end and returns the judged result: ProcResult.Violations is empty iff
// the run kept its promise. The run is bounded by a hard timeout
// (horizon plus a generous grace); on breach every child is killed and
// an error returned.
func RunOrchestrator(cfg OrchestratorConfig) (*ProcResult, error) {
	topo, err := ProcTopology(cfg.Topo, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	if cfg.Period <= 0 || cfg.Horizon == 0 {
		return nil, fmt.Errorf("live: period and horizon must be positive")
	}
	if cfg.Clients < 0 {
		return nil, fmt.Errorf("live: negative client count %d", cfg.Clients)
	}
	if cfg.OpsRate > 0 && cfg.Clients == 0 {
		return nil, fmt.Errorf("live: an op rate needs client sessions (clients = 0)")
	}
	if cfg.Clients > 0 && cfg.Horizon < 2 {
		return nil, fmt.Errorf("live: client load needs a horizon of at least 2 periods")
	}
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	period := cfg.Period
	workload := DefaultWorkload(period)
	opts := plan.DefaultOptions(cfg.F, 100*period)
	opts.WatchdogMargin = cfg.Margin
	strategy, err := plan.Build(workload, topo, opts)
	if err != nil {
		return nil, fmt.Errorf("live: planning failed: %w", err)
	}
	victim := VictimOf(strategy)
	sched, err := checkSchedule(cfg, topo.N, victim)
	if err != nil {
		return nil, err
	}
	exe := cfg.Exe
	if exe == "" {
		if exe, err = os.Executable(); err != nil {
			return nil, err
		}
	}

	baseSpec := func(i int) ProcSpec {
		s := ProcSpec{
			Node: i, Topo: cfg.Topo, Nodes: cfg.Nodes, F: cfg.F, Seed: cfg.Seed,
			PeriodUS: int64(period), MarginUS: int64(cfg.Margin), Horizon: cfg.Horizon,
			ForgiveUS:    int64(cfg.Forgive),
			ServeClients: cfg.Clients > 0,
		}
		// An in-process behavior travels in its victim's spec.
		for j, e := range sched {
			if int(e.Node) == i && !processFault(e.Behavior) {
				s.Fault = &sched[j]
			}
		}
		return s
	}

	events := make(chan procMsg, 1024)
	procs := map[int]*nodeProc{}
	defer func() {
		for _, p := range procs {
			if p.cmd.Process != nil {
				_ = p.cmd.Process.Kill()
			}
		}
	}()

	for i := 0; i < topo.N; i++ {
		p, err := spawnNodeProc(exe, baseSpec(i), events)
		if err != nil {
			return nil, fmt.Errorf("live: spawn node %d: %w", i, err)
		}
		procs[i] = p
	}
	desc := "soak"
	if len(sched) > 0 {
		desc = "faults:"
		for _, e := range sched {
			desc += fmt.Sprintf(" %s->node%d", e.Format(period), e.Node)
		}
	}
	fmt.Fprintf(logw, "orchestrator: %d node processes spawned (%s)\n", topo.N, desc)

	perDur := time.Duration(period) * time.Microsecond
	hardTimeout := time.After(time.Duration(cfg.Horizon+2)*perDur + 60*time.Second)

	// The startup barriers get their own bounded wait, far tighter than
	// the hard timeout: a child that wedges before emitting its barrier
	// line would otherwise hang the parent for the whole horizon grace.
	// On breach the stragglers are killed and named.
	barrierDur := cfg.BarrierTimeout
	if barrierDur <= 0 {
		barrierDur = 45 * time.Second
	}
	barrierTimeout := time.After(barrierDur)

	// Barrier: collect every listener address, then release all processes
	// at once so their logical clocks agree to within pipe latency.
	addrs := make([]string, topo.N)
	clientAddrs := make([]string, topo.N)
	if err := awaitBarrier(events, topo.N, "ready", barrierTimeout, hardTimeout, barrierDur, func(m procMsg) {
		addrs[m.node], clientAddrs[m.node] = m.ev.Addr, m.ev.ClientAddr
	}); err != nil {
		return nil, err
	}
	peersLine := "peers " + strings.Join(addrs, " ")
	for _, p := range procs {
		p.send(peersLine)
	}
	// Second barrier: wait for every process to finish building its system
	// (key generation, planning, dialing) so the release pins all logical
	// clocks to the same instant — construction lag must not eat into the
	// judged periods.
	if err := awaitBarrier(events, topo.N, "up", barrierTimeout, hardTimeout, barrierDur, func(procMsg) {}); err != nil {
		return nil, err
	}
	goTime := time.Now()
	for _, p := range procs {
		p.send("go")
	}
	fmt.Fprintf(logw, "orchestrator: cluster released (%s)\n", strings.Join(addrs, " "))

	// Client load rides the judged run: Clients concurrent sessions of
	// quorum reads/writes against the register service, stopping one
	// period before the horizon so node drain never masquerades as
	// client-visible unavailability. The SLO verdict is theirs — latency
	// and availability as an external caller experiences them, measured
	// through whatever faults the schedule injects.
	type sloOut struct {
		rep *client.SLOReport
		err error
	}
	var sloCh chan sloOut
	if cfg.Clients > 0 {
		view := client.View{Epoch: 0, F: cfg.F, Addrs: map[uint32]string{}}
		for i, a := range clientAddrs {
			if a == "" {
				return nil, fmt.Errorf("live: node %d reported no client-service address", i)
			}
			view.Addrs[uint32(i)] = a
		}
		loadDur := time.Duration(cfg.Horizon-1) * perDur
		sloCh = make(chan sloOut, 1)
		go func() {
			rep, err := client.RunLoad(client.LoadConfig{
				Sessions: cfg.Clients, Duration: loadDur, Rate: cfg.OpsRate, Seed: cfg.Seed,
				NewClient: func(i int) (*client.Client, error) {
					return client.New(client.Config{
						View: view, Writer: uint32(i + 1),
						OpTimeout: 10 * time.Second, IOTimeout: 2 * time.Second,
					})
				},
			})
			sloCh <- sloOut{rep, err}
		}()
		fmt.Fprintf(logw, "orchestrator: %d client sessions started (%v, rate %.0f ops/s)\n",
			cfg.Clients, loadDur, cfg.OpsRate)
	}

	// The process-level faults become a sorted action queue; one timer
	// channel re-arms for the head action, so any number of injections
	// and repairs interleave with their own clocks.
	type stormAction struct {
		at    time.Time
		entry int
		heal  bool
	}
	var actions []stormAction
	for i, e := range sched {
		if !processFault(e.Behavior) {
			continue
		}
		at := goTime.Add(time.Duration(e.At) * time.Microsecond)
		actions = append(actions, stormAction{at, i, false})
		if e.Behavior != "kill" {
			actions = append(actions, stormAction{at.Add(time.Duration(e.Heal) * time.Microsecond), i, true})
		}
	}
	slices.SortFunc(actions, func(a, b stormAction) int { return a.at.Compare(b.at) })
	arm := func() <-chan time.Time {
		if len(actions) == 0 {
			return nil
		}
		return time.After(time.Until(actions[0].at))
	}
	actionCh := arm()

	// The orchestrator is the plant: the first command to arrive per
	// (sink, period) wins, stamped on the orchestrator clock (microseconds
	// since "go").
	plant := core.NewPlant(workload, cfg.Horizon, strategy.RNeeded, core.HashOracle(workload, evidence.SourceValue))
	rep := plant.Report()
	res := &ProcResult{Report: rep, Victim: victim, Dones: map[int]ProcEvent{}, Exits: map[int]string{}}
	exits := 0
	spawned := topo.N
	for exits < spawned {
		select {
		case m := <-events:
			switch {
			case m.ev == nil:
				exits++
				// First write wins: a restarted incarnation must not mask
				// how its predecessor died (e.g. "signal: killed").
				if _, dup := res.Exits[m.node]; !dup {
					if m.err != nil {
						res.Exits[m.node] = m.err.Error()
					} else {
						res.Exits[m.node] = ""
					}
				}
			case m.ev.Ev == "act":
				// An undecodable value still takes the period, judged wrong.
				value, err := hex.DecodeString(m.ev.Value)
				if err != nil {
					value = nil
				}
				arrival := sim.Time(m.at.Sub(goTime) / time.Microsecond)
				if plant.Actuate(flow.TaskID(m.ev.Sink), m.ev.Period, value, arrival) {
					fmt.Fprintf(logw, "plant: %s period %d from node %d at %v (logical %v)\n",
						m.ev.Sink, m.ev.Period, m.node, arrival, sim.Time(m.ev.AtUS))
				}
			case m.ev.Ev == "event" && m.ev.Event != nil:
				ev := *m.ev.Event
				rep.Observe(ev)
				res.Events = append(res.Events, ev)
				if cfg.Verbose {
					fmt.Fprintln(logw, ev)
				}
			case m.ev.Ev == "done":
				res.Dones[m.node] = *m.ev
				fmt.Fprintf(logw, "done node %d: connected=%d links=%+v\n", m.node, m.ev.Connected, m.ev.Links)
			case m.ev.Ev == "up":
				// Only a restarted process reports up mid-run; it rebinds
				// its old port, rebuilds, and needs only the release.
				procs[m.node].send("go")
			}
		case <-actionCh:
			act := actions[0]
			actions = actions[1:]
			e := sched[act.entry]
			v := procs[int(e.Node)]
			if !act.heal {
				switch e.Behavior {
				case "kill", "kill-restart":
					fmt.Fprintf(logw, "orchestrator: SIGKILL node %d\n", e.Node)
					v.signal(syscall.SIGKILL)
				case "stop":
					fmt.Fprintf(logw, "orchestrator: SIGSTOP node %d\n", e.Node)
					v.signal(syscall.SIGSTOP)
				case "partition":
					fmt.Fprintf(logw, "orchestrator: partition node %d\n", e.Node)
					v.send("part")
				}
			} else {
				switch e.Behavior {
				case "kill-restart":
					// Rejoin in standby: the transport reconnects (that is
					// what the verdict asserts); the executive stays out of
					// the schedule the cluster has already failed over to.
					restart := baseSpec(int(e.Node))
					restart.Addrs = append([]string(nil), addrs...)
					if cfg.Clients > 0 {
						restart.ClientAddrs = append([]string(nil), clientAddrs...)
					}
					restart.StartPeriod = uint64((e.At + e.Heal) / period)
					restart.Standby = true
					p, err := spawnNodeProc(exe, restart, events)
					if err != nil {
						fmt.Fprintf(logw, "orchestrator: restart failed: %v\n", err)
						break
					}
					procs[int(e.Node)] = p
					spawned++
					fmt.Fprintf(logw, "orchestrator: node %d restarted in standby at period %d\n",
						e.Node, restart.StartPeriod)
				case "stop":
					fmt.Fprintf(logw, "orchestrator: SIGCONT node %d\n", e.Node)
					v.signal(syscall.SIGCONT)
				case "partition":
					fmt.Fprintf(logw, "orchestrator: heal node %d\n", e.Node)
					v.send("heal")
				}
			}
			actionCh = arm()
		case <-hardTimeout:
			return nil, fmt.Errorf("live: hard timeout — killed %d node processes", len(procs))
		}
	}

	// Join the load generator (it stops a period before the horizon, so
	// every process has outlived it) and adopt its client-side verdict.
	if sloCh != nil {
		out := <-sloCh
		if out.err != nil {
			return nil, fmt.Errorf("live: client load failed: %w", out.err)
		}
		res.SLO = out.rep
	}

	// Judge the merged actuation stream: a command counts for its period
	// iff it arrived by the sink deadline (plus a pipe-jitter allowance —
	// commands cross a pipe that in-process monitors do not pay) and
	// carried the oracle value.
	for p := uint64(0); p < cfg.Horizon; p++ {
		for _, sk := range workload.Sinks() {
			deadline := sim.Time(p)*period + workload.Tasks[sk].Deadline
			plant.Judge(sk, p, deadline, deadline+cfg.Margin)
		}
	}
	rep.Close()
	judge(cfg, topo, sched, res)
	return res, nil
}
