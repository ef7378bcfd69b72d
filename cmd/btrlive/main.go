// Command btrlive boots a full BTR deployment on the wall clock — plan
// engine, detectors, evidence distribution, mode switcher, all running on
// the real-time executor (sim.WallScheduler) — injects a fault from the
// behavior catalog at runtime, and reports the measured wall-clock
// recovery time against the strategy's provable bound R. With -kernel
// the same deployment runs on the simulation kernel instead. It is the
// "five-second rule on a real clock" demonstrator: the same runtime code
// that passes the simulated campaigns, executing under genuine
// asynchrony.
//
// It has three execution modes:
//
//   - Single process (default): every node in one process over the
//     simulated network (network.Network) paced by the wall clock, or,
//     with -kernel, run on the discrete-event simulation kernel, where
//     the same flags print the same bytes on every run. Membership churn
//     (-members and the churn flags) is available here. -v prints the
//     strategy first, so -kernel -v -fault none -horizon 1 is the planner
//     front-end.
//   - Orchestrated multi-process (-orchestrate): one OS process per node
//     over real TCP sockets (network.TCPBus), spawned and judged by an
//     in-process orchestrator acting as the plant. The fault catalog
//     grows process-level faults: kill (SIGKILL), kill-restart (SIGKILL
//     then supervised rejoin), stop (SIGSTOP/SIGCONT), partition
//     (userspace connection refusal, then heal). The faults form one
//     schedule: -fault k -at a is the one-entry schedule k@a+3 against
//     the strategy victim, and -faults spells out several, each with its
//     own repair delay.
//   - Per-node (-node N -peers addr,...): run exactly one node slot,
//     for hand-built multi-process or multi-host deployments. With
//     -peers the node starts immediately; without it the parent drives
//     the stdin protocol documented in internal/live/proc.go.
//
// Usage:
//
//	btrlive [-topo full-mesh|dual-bus|ring|grid] [-nodes N] [-f N]
//	        [-period D] [-margin D] [-horizon N] [-seed N]
//	        [-fault <adversary.Catalog behavior>|none]
//	        [-at N] [-members K] [-join n@p[,n@p...]]
//	        [-retire n@p[,n@p...]] [-replace new:old@p[,...]] [-kernel] [-v]
//	        [-cpuprofile out.pprof] [-memprofile out.pprof]
//	btrlive -orchestrate [-fault ...|kill|kill-restart|stop|partition]
//	        [-faults kind@at+heal[,...]] [-forgive D]
//	        [-clients N] [-ops RATE] [common flags]
//	btrlive -node N [-peers addr0,addr1,...] [common flags]
//
// Flags:
//
//	-topo        topology family (default full-mesh)
//	-nodes       node slot count (default 6; grid is fixed 3x3)
//	-f           fault bound the planner covers (default 1)
//	-period      control period (default 100ms; raise on slow hosts)
//	-margin      arrival-watchdog margin (default 20ms; covers executor
//	             and OS timer jitter, which a non-realtime host needs)
//	-horizon     number of periods to run (default 20)
//	-seed        deployment seed (default 1)
//	-fault       behavior to inject (default corrupt-all); none = soak
//	             only; kill/kill-restart/stop/partition need -orchestrate
//	-at          injection period index (default 3; must be < -horizon)
//	-faults      concurrent fault schedule "kind@at+heal[,...]" (kinds
//	             kill, kill-restart, stop, partition), each entry on its
//	             own injection/repair clock (heal defaults to 3 periods,
//	             and at+heal must be < -horizon); supersedes -fault/-at
//	-forgive     parole clock: convictions expire after this duration and
//	             a > f storm floods signed over-budget verdicts instead
//	             of staying silent (0 = classic mode)
//	-orchestrate boot one process per node over TCP and judge as plant
//	-kernel      run on the discrete-event simulation kernel instead of
//	             the wall clock (single-process mode only)
//	-clients     client sessions driving the replicated register service
//	             through the run (needs -orchestrate; 0 = no clients)
//	-ops         aggregate client op rate in ops/sec (needs -clients;
//	             0 = closed loop, each session as fast as it can)
//	-node        run one node slot of a multi-process deployment
//	-peers       listen addresses, index = node ID (with -node)
//	-members     number of initially active slots (slots 0..K-1); 0 = all
//	             slots active with membership epochs off unless churn
//	             flags are given (single-process mode only)
//	-join        scripted join events, "slot@period" comma-separated
//	-retire      scripted retire events, "slot@period"
//	-replace     scripted replace events, "new:old@period"
//	-v           print the strategy — modes, transitions, per-mode slot
//	             tables — to stdout (single-process mode), stream evidence
//	             and mode switches to stderr
//
// A flag the chosen mode would ignore is a usage error.
//
// The verdict is the paper's promise. A run of at most -f faults must
// show no bad output before the first fault and recover within R (the
// largest epoch bound under churn); every scripted epoch must activate.
// An orchestrated schedule of more than -f entries is a storm instead:
// its bad output must stay inside the fault-attributable window and,
// under -forgive, be flagged over budget and reconciled. Every repaired
// link must re-establish, and client sessions must see no errors and no
// gap longer than R + 2·period + margin. Each breach prints one
// "verdict: VIOLATION" line.
//
// Exit status: 0 when the run kept the promise, 1 on a violation, 2 on
// usage or planning errors. Profiles (-cpuprofile/-memprofile) are
// flushed on every exit path, including failures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"btr/internal/adversary"
	"btr/internal/cliflag"
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/live"
	"btr/internal/member"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/prof"
	"btr/internal/sim"
)

// churnEvent is one scripted reconfiguration.
type churnEvent struct {
	at    uint64
	delta member.Delta
	desc  string
}

// parseChurn parses "slot@period" (join/retire) or "new:old@period"
// (replace) comma-separated event lists, validating slot and period
// ranges the same way the other flags validate theirs.
func parseChurn(flagName, spec string, slots int, horizon uint64) ([]churnEvent, error) {
	if spec == "" {
		return nil, nil
	}
	var out []churnEvent
	for _, part := range strings.Split(spec, ",") {
		lhs, atStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("invalid -%s event %q (want %s@period)", flagName, part, flagName)
		}
		at, err := strconv.ParseUint(atStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid -%s period in %q: %v", flagName, part, err)
		}
		if err := cliflag.InRange(flagName+" period", int64(at), 1, int64(horizon)-1); err != nil {
			return nil, err
		}
		ev := churnEvent{at: at, desc: flagName + " " + part}
		switch flagName {
		case "replace":
			newStr, oldStr, ok := strings.Cut(lhs, ":")
			if !ok {
				return nil, fmt.Errorf("invalid -replace event %q (want new:old@period)", part)
			}
			j, err := parseSlot("replace", newStr, slots)
			if err != nil {
				return nil, err
			}
			r, err := parseSlot("replace", oldStr, slots)
			if err != nil {
				return nil, err
			}
			ev.delta = member.Delta{Join: []network.NodeID{j}, Retire: []network.NodeID{r}}
		case "join":
			j, err := parseSlot(flagName, lhs, slots)
			if err != nil {
				return nil, err
			}
			ev.delta = member.Delta{Join: []network.NodeID{j}}
		default: // retire
			r, err := parseSlot(flagName, lhs, slots)
			if err != nil {
				return nil, err
			}
			ev.delta = member.Delta{Retire: []network.NodeID{r}}
		}
		out = append(out, ev)
	}
	return out, nil
}

func parseSlot(flagName, s string, slots int) (network.NodeID, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("invalid -%s slot %q: %v", flagName, s, err)
	}
	if err := cliflag.InRange(flagName+" slot", int64(v), 0, int64(slots)-1); err != nil {
		return 0, err
	}
	return network.NodeID(v), nil
}

func main() {
	live.MaybeRunNodeProc()
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// liveFlags holds every flag value btrlive parses.
type liveFlags struct {
	topoKind, faultKind, peers        *string
	faultsSpec                        *string
	joinSpec, retireSpec, replaceSpec *string
	nodes, f, nodeID, membersN        *int
	clients                           *int
	opsRate                           *float64
	period, margin, forgive           *time.Duration
	horizon, seed, atPeriod           *uint64
	orchestrate, kernel, verbose      *bool
	prof                              *prof.Flags
}

// registerFlags registers the full btrlive flag set on fs. It is the
// single source of truth the README flags table is pinned against
// (TestReadmeFlagsTableMatches).
func registerFlags(fs *flag.FlagSet) *liveFlags {
	return &liveFlags{
		topoKind:    fs.String("topo", "full-mesh", "topology family: "+strings.Join(live.TopoKinds, ", ")),
		nodes:       fs.Int("nodes", 6, "node slot count (grid is fixed 3x3)"),
		f:           fs.Int("f", 1, "fault bound the planner covers"),
		period:      fs.Duration("period", 100*time.Millisecond, "control period"),
		margin:      fs.Duration("margin", 20*time.Millisecond, "arrival-watchdog margin (jitter budget)"),
		horizon:     fs.Uint64("horizon", 20, "periods to run"),
		seed:        fs.Uint64("seed", 1, "deployment seed"),
		faultKind:   fs.String("fault", "corrupt-all", "fault to inject: "+strings.Join(live.ProcFaultKinds(), ", ")),
		atPeriod:    fs.Uint64("at", 3, "injection period index (must be < -horizon)"),
		faultsSpec:  fs.String("faults", "", "concurrent fault schedule, kind@at+heal[,kind@at+heal...] (-orchestrate); kinds: "+strings.Join(live.StormFaultKinds(), ", ")),
		forgive:     fs.Duration("forgive", 0, "parole clock: convictions expire after this long and over-budget windows are flagged (-orchestrate; 0 = classic mode)"),
		orchestrate: fs.Bool("orchestrate", false, "one process per node over TCP, judged by an orchestrator plant"),
		kernel:      fs.Bool("kernel", false, "run on the discrete-event simulation kernel instead of the wall clock (single-process mode)"),
		clients:     fs.Int("clients", 0, "client sessions driving the replicated register service (-orchestrate; 0 = none)"),
		opsRate:     fs.Float64("ops", 0, "aggregate client op rate in ops/sec (-clients; 0 = closed loop)"),
		nodeID:      fs.Int("node", -1, "run one node slot of a multi-process deployment"),
		peers:       fs.String("peers", "", "comma-separated listen addresses, index = node ID (with -node)"),
		membersN:    fs.Int("members", 0, "initially active slots 0..K-1 (0 = all)"),
		joinSpec:    fs.String("join", "", "scripted joins, slot@period[,slot@period...]"),
		retireSpec:  fs.String("retire", "", "scripted retires, slot@period[,...]"),
		replaceSpec: fs.String("replace", "", "scripted replaces, new:old@period[,...]"),
		verbose:     fs.Bool("v", false, "print the strategy to stdout (single-process mode); stream evidence and mode switches to stderr"),
		prof:        prof.RegisterOn(fs),
	}
}

// mode is a set of btrlive's execution modes.
type mode uint8

const (
	singleProcess mode = 1 << iota
	orchestrated
	perNode
)

var modeNames = [...]string{"single-process", "orchestrated (-orchestrate)", "per-node (-node)"}

func (m mode) String() string {
	var names []string
	for i, n := range modeNames {
		if m&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	return strings.Join(names, " or ")
}

// modeOnly lists every flag that only some modes read, with the modes
// that read it; a flag not listed is read in every mode. An explicitly
// set flag the chosen mode would ignore is a usage error.
var modeOnly = map[string]mode{
	"kernel":      singleProcess,
	"members":     singleProcess,
	"join":        singleProcess,
	"retire":      singleProcess,
	"replace":     singleProcess,
	"orchestrate": singleProcess | orchestrated,
	"faults":      orchestrated,
	"forgive":     orchestrated,
	"clients":     orchestrated,
	"ops":         orchestrated,
	"peers":       perNode,
}

// run is main minus os.Exit: every path returns through it, so the
// deferred profile flush below runs on failures too (the internal/prof
// contract — a failing run must still write a valid profile).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("btrlive", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lf := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "btrlive: %v\n", err)
		return 2
	}

	stopProf, err := lf.prof.Start()
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	p := sim.Time(*lf.period / time.Microsecond)
	m := sim.Time(*lf.margin / time.Microsecond)

	cur := singleProcess
	switch {
	case *lf.nodeID >= 0:
		cur = perNode
	case *lf.orchestrate:
		cur = orchestrated
	}
	set := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) {
		set[fl.Name] = true
		if in, ok := modeOnly[fl.Name]; ok && in&cur == 0 && err == nil {
			err = fmt.Errorf("-%s does not apply in %v mode (only in %v mode)", fl.Name, cur, in)
		}
	})
	if err != nil {
		return fail(err)
	}
	if err := cliflag.InRange("clients", int64(*lf.clients), 0, 4096); err != nil {
		return fail(err)
	}
	if *lf.opsRate < 0 {
		return fail(fmt.Errorf("-ops must be >= 0, got %v", *lf.opsRate))
	}
	if *lf.opsRate > 0 && *lf.clients == 0 {
		return fail(fmt.Errorf("-ops requires -clients (an op rate needs client sessions to spread over)"))
	}
	// -at must land inside the run whenever it places a fault.
	if *lf.faultKind != "none" || set["at"] {
		if err := cliflag.InRange("at", int64(*lf.atPeriod), 0, int64(*lf.horizon)-1); err != nil {
			return fail(err)
		}
	}

	switch cur {
	case perNode:
		if err := runNode(lf, p, m, stdin, stdout); err != nil {
			return fail(err)
		}
		return 0
	case singleProcess:
		return runSingle(lf, p, m, stdout, stderr)
	}
	if err := cliflag.OneOf("fault", *lf.faultKind, live.ProcFaultKinds()); err != nil {
		return fail(err)
	}
	cfg := live.OrchestratorConfig{
		Topo: *lf.topoKind, Nodes: *lf.nodes, F: *lf.f, Seed: *lf.seed,
		Period: p, Margin: m, Horizon: *lf.horizon,
		Forgive: sim.Time(*lf.forgive / time.Microsecond),
		Clients: *lf.clients, OpsRate: *lf.opsRate,
		Verbose: *lf.verbose, Log: stdout,
	}
	if *lf.faultKind != "none" {
		// -fault k -at a is the one-entry schedule k@a.
		if cfg.Faults, err = adversary.ParseScript(fmt.Sprintf("%s@%d", *lf.faultKind, *lf.atPeriod), p, live.ProcFaultKinds()); err != nil {
			return fail(err)
		}
	}
	if *lf.faultsSpec != "" {
		// A schedule supersedes the single-fault flags; an explicit
		// -fault alongside -faults is a contradiction worth rejecting.
		if set["fault"] && *lf.faultKind != "none" {
			return fail(fmt.Errorf("-fault and -faults are mutually exclusive (the schedule names its own kinds)"))
		}
		if cfg.Faults, err = adversary.ParseScript(*lf.faultsSpec, p, live.StormFaultKinds()); err != nil {
			return fail(err)
		}
	}
	res, err := live.RunOrchestrator(cfg)
	if err != nil {
		return fail(err)
	}
	return printOrchestrated(stdout, cfg, res)
}

// runNode executes one node slot (per-node mode). With -peers the node
// starts immediately; otherwise the parent drives the stdin protocol.
func runNode(lf *liveFlags, p, m sim.Time, stdin io.Reader, stdout io.Writer) error {
	spec := live.ProcSpec{
		Node: *lf.nodeID, Topo: *lf.topoKind, Nodes: *lf.nodes, F: *lf.f, Seed: *lf.seed,
		PeriodUS: int64(p), MarginUS: int64(m), Horizon: *lf.horizon, Verbose: *lf.verbose,
	}
	in := stdin
	if *lf.peers != "" {
		spec.Addrs = strings.Split(*lf.peers, ",")
		// Self-driven start: no parent on stdin, so release immediately.
		in = strings.NewReader("go\n")
	}
	// The behavior catalog self-injects only on the victim node, matching
	// single-process semantics: every node process resolves the auto
	// victim against the same strategy, the host of the first-actuating
	// sink replica.
	if faultKind := *lf.faultKind; faultKind != "" && faultKind != "none" {
		if err := cliflag.OneOf("fault", faultKind, live.FaultKinds()); err != nil {
			return err
		}
		spec.Fault = &adversary.Fault{Behavior: faultKind, Node: -1, At: sim.Time(*lf.atPeriod) * p}
	}
	return live.RunNodeProc(spec, in, stdout)
}

// printOrchestrated prints an orchestrated run's result — node exits in
// node order — and its verdict, and returns the exit status.
func printOrchestrated(stdout io.Writer, cfg live.OrchestratorConfig, res *live.ProcResult) int {
	rep := res.Report
	fmt.Fprintf(stdout, "ran %d processes; %d actuations, %d missed, %d wrong\n",
		cfg.Nodes, rep.Actuations, rep.MissedPeriods, rep.WrongValues)
	nodes := make([]int, 0, len(res.Exits))
	for n := range res.Exits {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	for _, n := range nodes {
		if e := res.Exits[n]; e != "" {
			fmt.Fprintf(stdout, "node %d exit: %s\n", n, e)
		}
	}
	for _, sv := range res.Storm {
		fmt.Fprintf(stdout, "fault: %s on node %d at period %d", sv.Behavior, sv.Node, sv.At/cfg.Period)
		switch {
		case sv.ReconnectChecked && sv.Reconnected:
			fmt.Fprintf(stdout, ", repaired %d periods later — link re-established on every peer", sv.Heal/cfg.Period)
		case sv.ReconnectChecked:
			fmt.Fprintf(stdout, ", repaired %d periods later — LINK NOT RE-ESTABLISHED", sv.Heal/cfg.Period)
		}
		fmt.Fprintln(stdout)
	}
	for _, rec := range rep.Recoveries() {
		fmt.Fprintf(stdout, "fault at %v: measured wall-clock recovery %v\n", rec.FaultAt, rec.Duration())
	}
	if cfg.Forgive > 0 {
		fmt.Fprintf(stdout, "budget: %d over-budget verdict(s), %d reconciled\n", res.OverBudget, res.Reconciled)
	}
	if res.SLO != nil {
		fmt.Fprintf(stdout, "client SLO: %s (unavailability bound %v)\n", res.SLO, res.SLOBound.Round(time.Millisecond))
	}
	held := heldLine(rep)
	if len(res.Storm) > cfg.F {
		held = fmt.Sprintf("storm confined — bad output only inside [%v, %v], every repair rejoined",
			rep.FaultTimes[0], res.ConfineEnd)
	}
	return verdict(stdout, res.Violations, held)
}

// heldLine describes a run of at most f faults that kept its promise.
func heldLine(rep *live.Report) string {
	if len(rep.FaultTimes) == 0 {
		return "clean soak, no faults injected"
	}
	return fmt.Sprintf("recovered within bound — %v <= R=%v", rep.MaxRecovery(), rep.MaxEpochR())
}

// verdict prints one VIOLATION line per breach, or the held line when
// there is none, and returns the exit status: 1 iff a breach was found.
func verdict(stdout io.Writer, violations []string, held string) int {
	for _, v := range violations {
		fmt.Fprintf(stdout, "verdict: VIOLATION — %s\n", v)
	}
	if len(violations) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "verdict: %s\n", held)
	return 0
}

// runSingle is the single-process mode: every node in this process over
// the simulated network, paced by the wall clock or, with -kernel, run on
// the discrete-event kernel, where the same flags print the same bytes
// on every run.
func runSingle(lf *liveFlags, p, m sim.Time, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "btrlive: %v\n", err)
		return 2
	}
	faultKind, horizon, f := *lf.faultKind, *lf.horizon, *lf.f

	topo, err := live.BuildTopology(*lf.topoKind, *lf.nodes)
	if err != nil {
		return fail(err)
	}
	// Validate the remaining flags up front — before any planning output
	// — with the same loud listing the -topo check gives.
	if err := cliflag.OneOf("fault", faultKind, live.FaultKinds()); err != nil {
		return fail(err)
	}
	if err := cliflag.InRange("members", int64(*lf.membersN), 0, int64(topo.N)); err != nil {
		return fail(err)
	}
	var events []churnEvent
	for _, spec := range []struct{ name, val string }{
		{"join", *lf.joinSpec}, {"retire", *lf.retireSpec}, {"replace", *lf.replaceSpec},
	} {
		evs, err := parseChurn(spec.name, spec.val, topo.N, horizon)
		if err != nil {
			return fail(err)
		}
		events = append(events, evs...)
	}

	opts := plan.DefaultOptions(f, 100*p) // generous request; R is reported
	opts.WatchdogMargin = m

	cfg := live.Config{
		Seed:     *lf.seed,
		Workload: live.DefaultWorkload(p),
		Topology: topo,
		PlanOpts: opts,
		Horizon:  horizon,
	}
	// Membership epochs engage when an initial membership or any churn
	// event is scripted.
	if *lf.membersN > 0 || len(events) > 0 {
		k := *lf.membersN
		if k == 0 {
			k = topo.N
		}
		for i := 0; i < k; i++ {
			cfg.Members = append(cfg.Members, network.NodeID(i))
		}
	}
	if *lf.verbose {
		cfg.OnEvidence = func(node network.NodeID, ev evidence.Evidence, t sim.Time) {
			fmt.Fprintf(stderr, "[%10v] node %d: evidence %s (accused %d)\n", t, node, ev.Kind, ev.Accused)
		}
		cfg.OnSwitch = func(node network.NodeID, from, to string, t sim.Time) {
			fmt.Fprintf(stderr, "[%10v] node %d: mode switch %q -> %q\n", t, node, from, to)
		}
	}
	// Only the executor differs: both assemble through core.Assemble.
	var d *core.Deployment
	var runD func() *core.Report
	clock, span := "simulated", "simulation kernel"
	if *lf.kernel {
		s, err := core.NewSystem(cfg)
		if err != nil {
			return fail(err)
		}
		d, runD = s.Deployment, s.Run
	} else {
		ld, err := live.New(cfg)
		if err != nil {
			return fail(err)
		}
		d, runD = ld.Deployment, ld.Run
		clock, span = "wall-clock", fmt.Sprintf("%v wall", time.Duration(sim.Time(horizon)*p)*time.Microsecond)
	}
	fmt.Fprintf(stdout, "btrlive: %s on %s/%d slots, f=%d, period %v, horizon %d periods (%s)\n",
		cfg.Workload.Name, *lf.topoKind, topo.N, f, p, horizon, span)
	if cfg.Members != nil {
		fmt.Fprintf(stdout, "membership: %d of %d slots active at genesis; %d scripted epoch event(s)\n",
			len(cfg.Members), topo.N, len(events))
	}
	if *lf.verbose {
		fmt.Fprint(stdout, d.Strategy.Summary())
	} else {
		fmt.Fprintf(stdout, "strategy: %d plans, provable recovery bound R = %v\n",
			len(d.Strategy.Plans), d.Strategy.RNeeded)
	}

	for _, ev := range events {
		d.Reconfigure(sim.Time(ev.at)*p, ev.delta)
		fmt.Fprintf(stdout, "schedule: %s (t=%v)\n", ev.desc, sim.Time(ev.at)*p)
	}

	if faultKind != "none" {
		sink := cfg.Workload.Sinks()[0]
		sched, err := adversary.Script{{Behavior: faultKind, Node: -1, Task: sink, At: sim.Time(*lf.atPeriod) * p}}.
			Resolve(topo.N, live.VictimOf(d.Strategy))
		if err == nil {
			err = sched.Install(d, p)
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "inject: %s at t=%v (node %d hosts the first-actuating %q replica)\n",
			faultKind, sched[0].At, sched[0].Node, sink)
	}
	wallStart := time.Now()
	rep := runD()
	ran := "ran on the simulation kernel"
	if !*lf.kernel {
		ran = fmt.Sprintf("ran %v wall", time.Since(wallStart).Round(time.Millisecond))
	}

	fmt.Fprintf(stdout, "%s; %d actuations, %d evidence, %d mode switches, %d missed, %d wrong\n",
		ran, rep.Actuations, rep.EvidenceTotal(), len(rep.SwitchTimes), rep.MissedPeriods, rep.WrongValues)
	if *lf.verbose {
		st := rep.NetStats
		fmt.Fprintf(stderr, "transport: sent=%v delivered=%v dropped=%v shed=%v (backpressure sheds: %d)\n",
			st.MsgsSent, st.MsgsDelivered, st.MsgsDropped, st.MsgsShed, st.TotalShed())
	}
	// Epoch switches must never corrupt output, and every scripted one
	// must activate.
	violations := rep.Violations()
	for _, e := range rep.Epochs {
		if e.Err != "" {
			violations = append(violations, fmt.Sprintf("epoch %d rejected at %v — %s", e.Num, e.ProposedAt, e.Err))
			continue
		}
		if e.ActivatedAt == 0 {
			violations = append(violations, fmt.Sprintf("epoch %d -> %s proposed %v never activated", e.Num, e.Members, e.ProposedAt))
			continue
		}
		fmt.Fprintf(stdout, "epoch %d -> %s: proposed %v, committed %v (%d acks), activated %v (switch latency %v, R=%v)\n",
			e.Num, e.Members, e.ProposedAt, e.CommittedAt, e.Acks, e.ActivatedAt,
			e.ActivatedAt-e.ProposedAt, e.R)
	}
	if len(rep.Epochs) != len(events) {
		violations = append(violations, fmt.Sprintf("only %d of %d scripted epoch events were proposed", len(rep.Epochs), len(events)))
	}
	for _, rec := range rep.Recoveries() {
		fmt.Fprintf(stdout, "fault at %v: measured %s recovery %v\n", rec.FaultAt, clock, rec.Duration())
	}
	return verdict(stdout, violations, heldLine(rep))
}
