package live

// Orchestrated multi-process deployments: the parent half of proc.go.
// RunOrchestrator boots one OS process per node slot over the TCP
// transport, acts as the physical plant (first actuation command to
// arrive per (sink, period) wins), injects faults against real processes
// — the in-process behavior catalog via the victim's spec, plus
// process-level faults no simulator can express: SIGKILL (with optional
// supervised restart), SIGSTOP/SIGCONT stalls, and userspace partitions —
// and judges recovery against the strategy's provable bound R.

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"

	"btr/internal/client"
	"btr/internal/cliflag"
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// ProcFaultKinds lists every fault an orchestrated deployment can
// inject: the in-process behavior catalog (self-injected by the victim
// process) plus the process-level faults only a real deployment has.
var ProcFaultKinds = []string{
	"corrupt-all", "corrupt-sink", "crash", "omit", "flood", "none",
	"kill", "kill-restart", "stop", "partition",
}

// StormFaultKinds lists the process-level faults a concurrent fault
// schedule may carry — faults the orchestrator drives against a running
// process (the in-process behavior catalog is self-injected at spawn
// and cannot be scheduled concurrently).
var StormFaultKinds = []string{"kill", "kill-restart", "stop", "partition"}

// FaultSpec is one entry of a concurrent fault schedule: a process-level
// fault against one victim with its own injection and repair instants.
type FaultSpec struct {
	Kind string // StormFaultKinds
	// Node is the victim slot; -1 auto-assigns (the strategy victim
	// first, then the lowest untargeted slots). Every entry must target
	// a distinct node.
	Node    int
	FaultAt uint64 // injection period
	// HealAfter is how many periods after injection the orchestrator
	// repairs the fault (respawn / SIGCONT / heal); 0 means the default
	// of 3. Ignored for kind "kill", which is never repaired.
	HealAfter uint64
}

// StormVerdict is the per-victim outcome of one schedule entry.
type StormVerdict struct {
	Kind      string
	Node      int
	FaultAt   uint64
	HealAfter uint64
	// ReconnectChecked/Reconnected mirror ProcResult's transport
	// verdict, judged per victim: kinds whose repair must be visible at
	// the transport (kill-restart, partition, stop — a SIGSTOP stall
	// outlives the liveness deadline, so peers sever the victim's silent
	// links and the resumed victim must redial every one of them).
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

	Fault   string // ProcFaultKinds
	FaultAt uint64 // injection period; must satisfy FaultAt+HealAfter < Horizon

	// HealAfter is how many periods after the fault the orchestrator
	// repairs it: respawn for kill-restart, SIGCONT for stop, heal for
	// partition. 0 means the default of 3.
	HealAfter uint64

	// Faults optionally scripts a concurrent multi-fault storm: every
	// entry is injected and repaired on its own clock, so ≥ 2
	// process-level faults can be active at once. Non-empty Faults
	// supersedes Fault/FaultAt/HealAfter (Fault must then be "" or
	// "none").
	Faults []FaultSpec

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

	Verbose bool
	// Log receives orchestration progress lines (nil = discard).
	Log io.Writer
}

// ProcResult is an orchestrated run's full outcome.
type ProcResult struct {
	// Report is the plant-judged recovery report; its FaultTimes,
	// BadIntervals, Recoveries, and bound methods work exactly as for an
	// in-process Deployment.
	Report *Report
	// Victim is the node the fault targeted (hosts the first-actuating
	// sink replica, like single-process btrlive).
	Victim   network.NodeID
	Injected bool
	// ReconnectChecked is true for fault kinds whose repair must be
	// visible at the transport (kill-restart, partition, stop);
	// Reconnected then reports whether every peer adjacent to every
	// checked victim both re-established the link (Reconnects >= 1, or
	// a fresh connection from a restarted peer) and held it at horizon.
	ReconnectChecked bool
	Reconnected      bool
	// Storm holds the per-victim verdicts of a fault schedule (one
	// entry per FaultSpec; also populated, with a single entry, for a
	// process-level single-fault run).
	Storm []StormVerdict
	// OverBudget and Reconciled total the budget verdicts the node
	// processes flooded (evidence kinds over-budget / reconciled);
	// nonzero OverBudget means some node flagged the degraded regime —
	// the detect-and-apologize signal a > f storm must raise.
	OverBudget int
	Reconciled int
	// FirstFaultAt/ConfineEnd bound the window in which bad output is
	// fault-attributable; Confined reports whether every bad interval of
	// the plant report lies inside it (no damage before the first fault,
	// none past the last repair + parole + R + slack). Only meaningful
	// when a fault was injected.
	FirstFaultAt sim.Time
	ConfineEnd   sim.Time
	Confined     bool
	// Dones maps node ID to its final done event (absent for a process
	// that was killed and not restarted); Exits maps node ID to its exit
	// error string ("" = clean).
	Dones map[int]ProcEvent
	Exits map[int]string
	// SLO is the client-visible report of the load generator (nil unless
	// OrchestratorConfig.Clients > 0): latency quantiles, error counts,
	// and the longest client-observed unavailability window, measured
	// through whatever faults the run injected.
	SLO *client.SLOReport
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
// stdout events (and, last, its exit) into events.
func spawnNodeProc(exe string, spec ProcSpec, verbose bool, events chan<- procMsg) (*nodeProc, error) {
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), ProcSpecEnv+"="+string(raw))
	if verbose {
		cmd.Stderr = os.Stderr
	}
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
		events <- procMsg{node: spec.Node, err: cmd.Wait(), at: time.Now()}
	}()
	return p, nil
}

// RunOrchestrator runs one orchestrated multi-process deployment end to
// end and returns the plant-judged result. The run is bounded by a hard
// timeout (horizon plus a generous grace); on breach every child is
// killed and an error returned.
func RunOrchestrator(cfg OrchestratorConfig) (*ProcResult, error) {
	storm := len(cfg.Faults) > 0
	if storm {
		if cfg.Fault != "" && cfg.Fault != "none" {
			return nil, fmt.Errorf("live: a single fault (%q) and a fault schedule are mutually exclusive", cfg.Fault)
		}
		for i := range cfg.Faults {
			if err := cliflag.OneOf("faults", cfg.Faults[i].Kind, StormFaultKinds); err != nil {
				return nil, err
			}
		}
	} else if err := cliflag.OneOf("fault", cfg.Fault, ProcFaultKinds); err != nil {
		return nil, err
	}
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
	if cfg.HealAfter == 0 {
		cfg.HealAfter = 3
	}
	injected := storm || cfg.Fault != "none"
	if !storm && injected && cfg.FaultAt+cfg.HealAfter >= cfg.Horizon {
		return nil, fmt.Errorf("live: fault at period %d with heal-after %d does not fit horizon %d",
			cfg.FaultAt, cfg.HealAfter, cfg.Horizon)
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
	exe := cfg.Exe
	if exe == "" {
		if exe, err = os.Executable(); err != nil {
			return nil, err
		}
	}

	// The behavior catalog travels in the victim's spec; process-level
	// faults are driven from here. A single process-level fault is
	// normalized into a one-entry schedule so storms and single faults
	// share one driving loop.
	catalogFault := ""
	entries := append([]FaultSpec(nil), cfg.Faults...)
	if !storm {
		switch cfg.Fault {
		case "kill", "kill-restart", "stop", "partition":
			entries = []FaultSpec{{Kind: cfg.Fault, Node: int(victim), FaultAt: cfg.FaultAt, HealAfter: cfg.HealAfter}}
		case "none":
		default:
			catalogFault = cfg.Fault
		}
	}
	// Resolve auto victims (-1): the strategy victim first, then the
	// lowest untargeted slots. Every entry must hit a distinct node.
	used := map[int]bool{}
	for i := range entries {
		if entries[i].HealAfter == 0 {
			entries[i].HealAfter = 3
		}
		if entries[i].Node < 0 {
			continue
		}
		if entries[i].Node >= topo.N {
			return nil, fmt.Errorf("live: fault schedule targets node %d of a %d-node deployment", entries[i].Node, topo.N)
		}
		if used[entries[i].Node] {
			return nil, fmt.Errorf("live: fault schedule targets node %d twice", entries[i].Node)
		}
		used[entries[i].Node] = true
	}
	for i := range entries {
		if entries[i].Node >= 0 {
			continue
		}
		pick := -1
		if !used[int(victim)] {
			pick = int(victim)
		} else {
			for n := 0; n < topo.N; n++ {
				if !used[n] {
					pick = n
					break
				}
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("live: fault schedule has more entries than nodes")
		}
		entries[i].Node = pick
		used[pick] = true
	}
	for _, e := range entries {
		end := e.FaultAt
		if e.Kind != "kill" {
			end = e.FaultAt + e.HealAfter
		}
		if end >= cfg.Horizon {
			return nil, fmt.Errorf("live: fault %s at period %d with heal-after %d does not fit horizon %d",
				e.Kind, e.FaultAt, e.HealAfter, cfg.Horizon)
		}
	}

	baseSpec := func(i int) ProcSpec {
		s := ProcSpec{
			Node: i, Topo: cfg.Topo, Nodes: cfg.Nodes, F: cfg.F, Seed: cfg.Seed,
			PeriodUS: int64(period), MarginUS: int64(cfg.Margin), Horizon: cfg.Horizon,
			ForgiveUS: int64(cfg.Forgive), Verbose: cfg.Verbose,
			ServeClients: cfg.Clients > 0,
		}
		if catalogFault != "" && i == int(victim) {
			s.Fault, s.FaultAt = catalogFault, cfg.FaultAt
		}
		return s
	}

	events := make(chan procMsg, 1024)
	procs := map[int]*nodeProc{}
	killAll := func() {
		for _, p := range procs {
			if p.cmd.Process != nil {
				_ = p.cmd.Process.Kill()
			}
		}
	}
	defer killAll()

	for i := 0; i < topo.N; i++ {
		p, err := spawnNodeProc(exe, baseSpec(i), cfg.Verbose, events)
		if err != nil {
			return nil, fmt.Errorf("live: spawn node %d: %w", i, err)
		}
		procs[i] = p
	}
	if storm {
		var parts []string
		for _, e := range entries {
			parts = append(parts, fmt.Sprintf("%s@%d+%d->node%d", e.Kind, e.FaultAt, e.HealAfter, e.Node))
		}
		fmt.Fprintf(logw, "orchestrator: %d node processes spawned (storm: %s)\n",
			topo.N, strings.Join(parts, " "))
	} else {
		fmt.Fprintf(logw, "orchestrator: %d node processes spawned (victim %d, fault %s at period %d)\n",
			topo.N, victim, cfg.Fault, cfg.FaultAt)
	}

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
	// straggling names the nodes still missing from a barrier round.
	straggling := func(reported map[int]bool) []int {
		var missing []int
		for i := 0; i < topo.N; i++ {
			if !reported[i] {
				missing = append(missing, i)
			}
		}
		return missing
	}

	// Barrier: collect every listener address, then release all processes
	// at once so their logical clocks agree to within pipe latency.
	addrs := make([]string, topo.N)
	clientAddrs := make([]string, topo.N)
	readyNodes := map[int]bool{}
	for len(readyNodes) < topo.N {
		select {
		case m := <-events:
			switch {
			case m.ev != nil && m.ev.Ev == "ready":
				addrs[m.node] = m.ev.Addr
				clientAddrs[m.node] = m.ev.ClientAddr
				readyNodes[m.node] = true
			case m.ev == nil:
				return nil, fmt.Errorf("live: node %d exited before ready: %v", m.node, m.err)
			}
		case <-barrierTimeout:
			killAll()
			return nil, fmt.Errorf("live: ready barrier timed out after %v — nodes %v never reported ready (killed)",
				barrierDur, straggling(readyNodes))
		case <-hardTimeout:
			killAll()
			return nil, fmt.Errorf("live: timed out waiting for node readiness")
		}
	}
	peersLine := "peers " + strings.Join(addrs, " ")
	for _, p := range procs {
		p.send(peersLine)
	}
	// Second barrier: wait for every process to finish building its system
	// (key generation, planning, dialing) so the release pins all logical
	// clocks to the same instant — construction lag must not eat into the
	// judged periods.
	upNodes := map[int]bool{}
	for len(upNodes) < topo.N {
		select {
		case m := <-events:
			switch {
			case m.ev != nil && m.ev.Ev == "up":
				upNodes[m.node] = true
			case m.ev == nil:
				return nil, fmt.Errorf("live: node %d exited before up: %v", m.node, m.err)
			}
		case <-barrierTimeout:
			killAll()
			return nil, fmt.Errorf("live: up barrier timed out after %v — nodes %v never reported up (killed)",
				barrierDur, straggling(upNodes))
		case <-hardTimeout:
			killAll()
			return nil, fmt.Errorf("live: timed out waiting for node construction")
		}
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
				killAll()
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

	// The fault schedule becomes a sorted action queue; one timer channel
	// re-arms for the head action, so any number of injections and
	// repairs interleave with their own clocks.
	type stormAction struct {
		at    time.Time
		entry int
		heal  bool
	}
	var actions []stormAction
	for i, e := range entries {
		actions = append(actions, stormAction{goTime.Add(time.Duration(e.FaultAt) * perDur), i, false})
		if e.Kind != "kill" {
			actions = append(actions, stormAction{goTime.Add(time.Duration(e.FaultAt+e.HealAfter) * perDur), i, true})
		}
	}
	sort.Slice(actions, func(i, j int) bool { return actions[i].at.Before(actions[j].at) })
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
	res := &ProcResult{
		Victim: victim, Injected: injected,
		Dones: map[int]ProcEvent{}, Exits: map[int]string{},
	}
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
			case m.ev.Ev == "done":
				res.Dones[m.node] = *m.ev
				fmt.Fprintf(logw, "done node %d: acts=%d evidence=%d switches=%d connected=%d links=%+v\n",
					m.node, m.ev.Acts, m.ev.Evidence, m.ev.Switches, m.ev.Connected, m.ev.Links)
			case m.ev.Ev == "up":
				// Only a restarted process reports up mid-run; it rebinds
				// its old port, rebuilds, and needs only the release.
				procs[m.node].send("go")
			}
		case <-actionCh:
			act := actions[0]
			actions = actions[1:]
			e := entries[act.entry]
			v := procs[e.Node]
			if !act.heal {
				switch e.Kind {
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
				switch e.Kind {
				case "kill-restart":
					// Rejoin in standby: the transport reconnects (that is
					// what the verdict asserts); the executive stays out of
					// the schedule the cluster has already failed over to.
					restart := baseSpec(e.Node)
					restart.Addrs = append([]string(nil), addrs...)
					if cfg.Clients > 0 {
						restart.ClientAddrs = append([]string(nil), clientAddrs...)
					}
					restart.StartPeriod = e.FaultAt + e.HealAfter
					restart.Standby = true
					restart.Fault = ""
					p, err := spawnNodeProc(exe, restart, cfg.Verbose, events)
					if err != nil {
						fmt.Fprintf(logw, "orchestrator: restart failed: %v\n", err)
						break
					}
					procs[e.Node] = p
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
			killAll()
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
	rep := plant.Report()
	if injected {
		if catalogFault != "" {
			rep.FaultTimes = []sim.Time{sim.Time(cfg.FaultAt) * period}
		} else {
			for _, e := range entries {
				rep.FaultTimes = append(rep.FaultTimes, sim.Time(e.FaultAt)*period)
			}
			sort.Slice(rep.FaultTimes, func(i, j int) bool { return rep.FaultTimes[i] < rep.FaultTimes[j] })
		}
	}
	for _, d := range res.Dones {
		rep.Actuations += d.Acts
		res.OverBudget += d.OverBudget
		res.Reconciled += d.Reconciled
	}
	if res.OverBudget > 0 {
		rep.EvidenceByKind[evidence.KindOverBudget] = res.OverBudget
	}
	if res.Reconciled > 0 {
		rep.EvidenceByKind[evidence.KindReconciled] = res.Reconciled
	}
	res.Report = rep

	// Transport-level verdict, judged per schedule entry: after a
	// kill-restart respawn or a partition heal, every peer adjacent to
	// the victim must have re-established the link and held it through
	// the horizon. Peers that were themselves killed in the storm are
	// not witnesses for other victims: a killed peer has no counters and
	// a restarted one rejoins on its own clock (possibly still
	// handshaking at horizon) — its rejoin is judged by its own entry,
	// through the links of the peers that lived through it.
	//
	// SIGSTOP is judged through the VICTIM's own links instead: the
	// stall outlives the 200ms liveness deadline, so the running peers
	// deterministically sever the victim's silent connections and the
	// resumed victim must redial every one of them. The peer→victim
	// direction is NOT a reliable witness — a stopped process's kernel
	// still ACKs, so a peer's outbound connection can legitimately ride
	// out the stall on kernel buffering (the victim drains the backlog
	// on resume) and never needs a redial.
	stormVictim := map[int]bool{}
	for _, e := range entries {
		if e.Kind == "kill" || e.Kind == "kill-restart" {
			stormVictim[e.Node] = true
		}
	}
	anyChecked := false
	allReconnected := true
	for _, e := range entries {
		sv := StormVerdict{Kind: e.Kind, Node: e.Node, FaultAt: e.FaultAt, HealAfter: e.HealAfter}
		switch e.Kind {
		case "stop":
			sv.ReconnectChecked = true
			sv.Reconnected = true
			d, ok := res.Dones[e.Node]
			if !ok || len(d.Links) == 0 {
				sv.Reconnected = false
			}
			for _, l := range d.Links {
				if stormVictim[l.Peer] {
					continue
				}
				if l.Reconnects < 1 || !l.Connected {
					sv.Reconnected = false
				}
			}
			anyChecked = true
			if !sv.Reconnected {
				allReconnected = false
			}
		case "kill-restart", "partition":
			sv.ReconnectChecked = true
			sv.Reconnected = true
			for _, peer := range topo.Neighbors(network.NodeID(e.Node)) {
				if int(peer) != e.Node && stormVictim[int(peer)] {
					continue
				}
				d, ok := res.Dones[int(peer)]
				if !ok {
					sv.Reconnected = false
					continue
				}
				found := false
				for _, l := range d.Links {
					if l.Peer == e.Node {
						found = l.Reconnects >= 1 && l.Connected
					}
				}
				if !found {
					sv.Reconnected = false
				}
			}
			anyChecked = true
			if !sv.Reconnected {
				allReconnected = false
			}
		}
		res.Storm = append(res.Storm, sv)
	}
	if anyChecked {
		res.ReconnectChecked = true
		res.Reconnected = allReconnected
	}

	// Confinement: every bad interval of the plant report must lie inside
	// [first fault, last repair + parole + R + slack] — damage may be
	// severe in a > f storm, but it must be fault-attributable, never
	// silent leakage before the first fault or past the drain of the last
	// repair.
	if injected {
		res.FirstFaultAt = rep.FaultTimes[0]
		lastRepair := sim.Time(cfg.FaultAt) * period
		for _, e := range entries {
			end := e.FaultAt
			if e.Kind != "kill" {
				end = e.FaultAt + e.HealAfter
			}
			if t := sim.Time(end) * period; t > lastRepair {
				lastRepair = t
			}
		}
		res.ConfineEnd = lastRepair + cfg.Forgive + strategy.RNeeded + 2*period + cfg.Margin
		res.Confined = true
		for _, iv := range rep.BadIntervals() {
			if iv.Start < res.FirstFaultAt || iv.End > res.ConfineEnd {
				res.Confined = false
			}
		}
	}
	return res, nil
}
