// Command btrlive boots a full BTR deployment on the wall clock — plan
// engine, detectors, evidence distribution, mode switcher, all running on
// the real-time executor (sim.WallScheduler) — injects a fault from the
// behavior catalog at runtime, and reports the measured wall-clock
// recovery time against the strategy's provable bound R. It is the
// "five-second rule on a real clock" demonstrator: the same runtime code
// that passes the simulated campaigns, executing under genuine
// asynchrony.
//
// It has three execution modes:
//
//   - Single process (default): every node in one process over the
//     simulated network (network.Network) paced by the wall clock.
//     Membership churn (-members and the churn flags) is available here.
//   - Orchestrated multi-process (-orchestrate): one OS process per node
//     over real TCP sockets (network.TCPBus), spawned and judged by an
//     in-process orchestrator acting as the plant. The fault catalog
//     grows process-level faults: kill (SIGKILL), kill-restart (SIGKILL
//     then supervised rejoin), stop (SIGSTOP/SIGCONT), partition
//     (userspace connection refusal, then heal).
//   - Per-node (-node N -peers addr,...): run exactly one node slot,
//     for hand-built multi-process or multi-host deployments. With
//     -peers the node starts immediately; without it the parent drives
//     the stdin protocol documented in internal/live/proc.go.
//
// Usage:
//
//	btrlive [-topo full-mesh|dual-bus|ring|grid] [-nodes N] [-f N]
//	        [-period D] [-margin D] [-horizon N] [-seed N]
//	        [-fault corrupt-all|corrupt-sink|crash|omit|flood|none]
//	        [-at N] [-members K] [-join n@p[,n@p...]]
//	        [-retire n@p[,n@p...]] [-replace new:old@p[,...]] [-v]
//	        [-cpuprofile out.pprof] [-memprofile out.pprof]
//	btrlive -orchestrate [-fault ...|kill|kill-restart|stop|partition]
//	        [-heal-after N] [-faults kind@at+heal[,...]] [-forgive D]
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
//	-heal-after  periods between fault and repair in -orchestrate mode
//	             (restart, SIGCONT, heal; default 3)
//	-faults      concurrent fault schedule "kind@at+heal[,...]" (kinds
//	             kill, kill-restart, stop, partition), each entry on its
//	             own injection/repair clock; supersedes -fault/-at
//	-forgive     parole clock: convictions expire after this duration and
//	             a > f storm floods signed over-budget verdicts instead
//	             of staying silent (0 = classic mode)
//	-orchestrate boot one process per node over TCP and judge as plant
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
//	-v           stream evidence and mode switches to stderr
//
// Exit status: 0 when every measured recovery met the (per-epoch) bound
// R and every scripted epoch activated, 1 on a violation, 2 on usage or
// planning errors. Profiles (-cpuprofile/-memprofile) are flushed on
// every exit path, including failures.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"btr/internal/cliflag"
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

// parseFaults parses the -faults schedule: comma-separated
// "kind@at+heal" entries (heal optional; 0 lets the orchestrator apply
// its default), each validated against the storm fault kinds with the
// same loud listing every other enum flag gives. Victims are
// auto-assigned (Node -1): the strategy victim first, then the lowest
// free slots.
func parseFaults(spec string, horizon uint64) ([]live.FaultSpec, error) {
	var out []live.FaultSpec
	for _, part := range strings.Split(spec, ",") {
		kind, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("invalid -faults entry %q (want kind@at+heal)", part)
		}
		if err := cliflag.OneOf("faults", kind, live.StormFaultKinds); err != nil {
			return nil, err
		}
		atStr, healStr, hasHeal := strings.Cut(rest, "+")
		at, err := strconv.ParseUint(atStr, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid -faults injection period in %q: %v", part, err)
		}
		if err := cliflag.InRange("faults at", int64(at), 0, int64(horizon)-1); err != nil {
			return nil, err
		}
		fsp := live.FaultSpec{Kind: kind, Node: -1, FaultAt: at}
		if hasHeal {
			heal, err := strconv.ParseUint(healStr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("invalid -faults heal delay in %q: %v", part, err)
			}
			fsp.HealAfter = heal
		}
		out = append(out, fsp)
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
	topoKind, faultKind, peers         *string
	faultsSpec                         *string
	joinSpec, retireSpec, replaceSpec  *string
	nodes, f, nodeID, membersN         *int
	clients                            *int
	opsRate                            *float64
	period, margin, forgive            *time.Duration
	horizon, seed, atPeriod, healAfter *uint64
	orchestrate, verbose               *bool
	prof                               *prof.Flags
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
		faultKind:   fs.String("fault", "corrupt-all", "fault to inject: "+strings.Join(live.ProcFaultKinds, ", ")),
		atPeriod:    fs.Uint64("at", 3, "injection period index (must be < -horizon)"),
		healAfter:   fs.Uint64("heal-after", 3, "periods between fault and repair (-orchestrate)"),
		faultsSpec:  fs.String("faults", "", "concurrent fault schedule, kind@at+heal[,kind@at+heal...] (-orchestrate); kinds: "+strings.Join(live.StormFaultKinds, ", ")),
		forgive:     fs.Duration("forgive", 0, "parole clock: convictions expire after this long and over-budget windows are flagged (-orchestrate; 0 = classic mode)"),
		orchestrate: fs.Bool("orchestrate", false, "one process per node over TCP, judged by an orchestrator plant"),
		clients:     fs.Int("clients", 0, "client sessions driving the replicated register service (-orchestrate; 0 = none)"),
		opsRate:     fs.Float64("ops", 0, "aggregate client op rate in ops/sec (-clients; 0 = closed loop)"),
		nodeID:      fs.Int("node", -1, "run one node slot of a multi-process deployment"),
		peers:       fs.String("peers", "", "comma-separated listen addresses, index = node ID (with -node)"),
		membersN:    fs.Int("members", 0, "initially active slots 0..K-1 (0 = all)"),
		joinSpec:    fs.String("join", "", "scripted joins, slot@period[,slot@period...]"),
		retireSpec:  fs.String("retire", "", "scripted retires, slot@period[,...]"),
		replaceSpec: fs.String("replace", "", "scripted replaces, new:old@period[,...]"),
		verbose:     fs.Bool("v", false, "stream evidence and mode switches to stderr"),
		prof:        prof.RegisterOn(fs),
	}
}

// run is main minus os.Exit: every path returns through it, so the
// deferred profile flush below runs on failures too (the internal/prof
// contract — a failing run must still write a valid profile).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("btrlive", flag.ContinueOnError)
	fs.SetOutput(stderr)
	lf := registerFlags(fs)
	topoKind, nodes, f := lf.topoKind, lf.nodes, lf.f
	period, margin, horizon, seed := lf.period, lf.margin, lf.horizon, lf.seed
	faultKind, atPeriod, healAfter := lf.faultKind, lf.atPeriod, lf.healAfter
	orchestrate, nodeID, peers := lf.orchestrate, lf.nodeID, lf.peers
	membersN, joinSpec, retireSpec, replaceSpec := lf.membersN, lf.joinSpec, lf.retireSpec, lf.replaceSpec
	verbose, profFlags := lf.verbose, lf.prof
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "btrlive: %v\n", err)
		return 2
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	p := sim.Time(*period / time.Microsecond)
	m := sim.Time(*margin / time.Microsecond)

	multiProcess := *orchestrate || *nodeID >= 0
	if multiProcess && (*membersN > 0 || *joinSpec != "" || *retireSpec != "" || *replaceSpec != "") {
		return fail(fmt.Errorf("membership flags require single-process mode (see ROADMAP: epochs do not cross process boundaries yet)"))
	}
	if *orchestrate && *nodeID >= 0 {
		return fail(fmt.Errorf("-orchestrate and -node are mutually exclusive"))
	}

	if *nodeID >= 0 {
		return runNode(fs, *nodeID, *peers, *topoKind, *nodes, *f, *seed, p, m, *horizon,
			*faultKind, *atPeriod, *verbose, stdin, stdout, stderr)
	}
	if *lf.faultsSpec != "" && !*orchestrate {
		return fail(fmt.Errorf("-faults requires -orchestrate (a concurrent schedule drives real processes)"))
	}
	if err := cliflag.InRange("clients", int64(*lf.clients), 0, 4096); err != nil {
		return fail(err)
	}
	if *lf.opsRate < 0 {
		return fail(fmt.Errorf("-ops must be >= 0, got %v", *lf.opsRate))
	}
	if *lf.clients > 0 && !*orchestrate {
		return fail(fmt.Errorf("-clients requires -orchestrate (the register service rides on orchestrated node processes)"))
	}
	if *lf.opsRate > 0 && *lf.clients == 0 {
		return fail(fmt.Errorf("-ops requires -clients (an op rate needs client sessions to spread over)"))
	}
	if *orchestrate {
		if err := cliflag.InRange("at", int64(*atPeriod), 0, int64(*horizon)-1); err != nil {
			return fail(err)
		}
		cfg := live.OrchestratorConfig{
			Topo: *topoKind, Nodes: *nodes, F: *f, Seed: *seed,
			Period: p, Margin: m, Horizon: *horizon,
			Fault: *faultKind, FaultAt: *atPeriod, HealAfter: *healAfter,
			Forgive: sim.Time(*lf.forgive / time.Microsecond),
			Clients: *lf.clients, OpsRate: *lf.opsRate,
			Verbose: *verbose, Log: stdout,
		}
		if *lf.faultsSpec != "" {
			// A schedule supersedes the single-fault flags; an explicit
			// -fault alongside -faults is a contradiction worth rejecting.
			explicitFault := false
			fs.Visit(func(fl *flag.Flag) {
				if fl.Name == "fault" {
					explicitFault = true
				}
			})
			if explicitFault && *faultKind != "none" {
				return fail(fmt.Errorf("-fault and -faults are mutually exclusive (the schedule names its own kinds)"))
			}
			faults, err := parseFaults(*lf.faultsSpec, *horizon)
			if err != nil {
				return fail(err)
			}
			cfg.Fault, cfg.Faults = "none", faults
		}
		return runOrchestrated(cfg, stdout, stderr)
	}
	return runSingle(*topoKind, *nodes, *f, *seed, p, m, *horizon, *faultKind, *atPeriod,
		*membersN, *joinSpec, *retireSpec, *replaceSpec, *verbose, stdout, stderr, *period)
}

// runNode executes one node slot (per-node mode). With -peers the node
// starts immediately; otherwise the parent drives the stdin protocol.
func runNode(fs *flag.FlagSet, nodeID int, peers, topoKind string, nodes, f int, seed uint64,
	p, m sim.Time, horizon uint64, faultKind string, atPeriod uint64, verbose bool,
	stdin io.Reader, stdout, stderr io.Writer) int {
	_ = fs
	fail := func(err error) int {
		fmt.Fprintf(stderr, "btrlive: %v\n", err)
		return 2
	}
	spec := live.ProcSpec{
		Node: nodeID, Topo: topoKind, Nodes: nodes, F: f, Seed: seed,
		PeriodUS: int64(p), MarginUS: int64(m), Horizon: horizon, Verbose: verbose,
	}
	in := stdin
	if peers != "" {
		spec.Addrs = strings.Split(peers, ",")
		// Self-driven start: no parent on stdin, so release immediately.
		in = strings.NewReader("go\n")
	}
	// The behavior catalog self-injects only on the victim node, matching
	// single-process semantics (the victim hosts the first-actuating sink
	// replica and is computed identically in every process).
	if faultKind != "" && faultKind != "none" {
		if err := cliflag.OneOf("fault", faultKind, live.FaultKinds); err != nil {
			return fail(err)
		}
		// ProcTopology, not BuildTopology: the victim must be computed from
		// the same strategy every node process plans with.
		topo, err := live.ProcTopology(topoKind, nodes)
		if err != nil {
			return fail(err)
		}
		opts := plan.DefaultOptions(f, 100*p)
		opts.WatchdogMargin = m
		strategy, err := plan.Build(live.DefaultWorkload(p), topo, opts)
		if err != nil {
			return fail(err)
		}
		if int(live.VictimOf(strategy)) == nodeID {
			spec.Fault, spec.FaultAt = faultKind, atPeriod
		}
	}
	if err := live.RunNodeProc(spec, in, stdout); err != nil {
		return fail(err)
	}
	return 0
}

// runOrchestrated boots the multi-process deployment and prints the
// plant's verdict.
func runOrchestrated(cfg live.OrchestratorConfig, stdout, stderr io.Writer) int {
	res, err := live.RunOrchestrator(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "btrlive: %v\n", err)
		return 2
	}
	rep := res.Report
	at := sim.Time(cfg.FaultAt) * cfg.Period
	fmt.Fprintf(stdout, "ran %d processes; %d actuations, %d missed, %d wrong\n",
		cfg.Nodes, rep.Actuations, rep.MissedPeriods, rep.WrongValues)
	for n, e := range res.Exits {
		if e != "" {
			fmt.Fprintf(stdout, "node %d exit: %s\n", n, e)
		}
	}
	for _, rec := range rep.Recoveries() {
		fmt.Fprintf(stdout, "fault at %v: measured wall-clock recovery %v\n", rec.FaultAt, rec.Duration())
	}
	sloOK := sloVerdict(cfg, res, stdout)
	if len(cfg.Faults) > 0 {
		code := stormVerdict(cfg, res, stdout)
		if code == 0 && !sloOK {
			return 1
		}
		return code
	}
	spurious := false
	for _, iv := range rep.BadIntervals() {
		if !res.Injected || iv.Start < at {
			spurious = true
			fmt.Fprintf(stdout, "spurious bad output %v (not attributable to the injected fault)\n", iv)
		}
	}
	max := rep.MaxRecovery()
	switch {
	case spurious:
		fmt.Fprintf(stdout, "verdict: VIOLATION — bad output outside any injected fault's window (missed=%d wrong=%d)\n",
			rep.MissedPeriods, rep.WrongValues)
		return 1
	case res.ReconnectChecked && !res.Reconnected:
		fmt.Fprintln(stdout, "verdict: VIOLATION — victim link did not re-establish after repair")
		return 1
	case !res.Injected:
		fmt.Fprintln(stdout, "verdict: clean soak, no faults injected")
	case max <= rep.RNeeded:
		fmt.Fprintf(stdout, "verdict: recovered within bound — %v <= R=%v\n", max, rep.RNeeded)
	default:
		fmt.Fprintf(stdout, "verdict: VIOLATION — recovery %v vs R=%v (missed=%d wrong=%d)\n",
			max, rep.RNeeded, rep.MissedPeriods, rep.WrongValues)
		return 1
	}
	if res.ReconnectChecked {
		fmt.Fprintf(stdout, "transport: victim link re-established on every adjacent peer\n")
	}
	if !sloOK {
		return 1
	}
	return 0
}

// sloVerdict prints the client-visible SLO report and judges it against
// the serving-surface contract: a ≤ f fault must stay invisible to
// clients except as a bounded stall — zero client-visible errors, and
// the longest success gap within R plus one detection period and the
// watchdog margin. Returns true when the SLO held (vacuously true when
// no clients ran).
func sloVerdict(cfg live.OrchestratorConfig, res *live.ProcResult, stdout io.Writer) bool {
	if res.SLO == nil {
		return true
	}
	fmt.Fprintf(stdout, "client SLO: %s\n", res.SLO)
	bound := time.Duration(res.Report.RNeeded+2*cfg.Period+cfg.Margin) * time.Microsecond
	ok := true
	if res.SLO.Errors > 0 {
		ok = false
		fmt.Fprintf(stdout, "verdict: VIOLATION — %d client-visible error(s); retries must absorb a <= f fault\n", res.SLO.Errors)
	}
	if res.SLO.MaxUnavail > bound {
		ok = false
		fmt.Fprintf(stdout, "verdict: VIOLATION — client-visible unavailability %v exceeds bound %v (R + 2*period + margin)\n",
			res.SLO.MaxUnavail.Round(time.Millisecond), bound)
	}
	if ok {
		fmt.Fprintf(stdout, "serving: client SLO held — no errors, max unavailability %v <= %v\n",
			res.SLO.MaxUnavail.Round(time.Millisecond), bound)
	}
	return ok
}

// stormVerdict prints the per-victim outcomes of a concurrent fault
// schedule and judges the storm invariants: every bad interval must be
// fault-attributable (confined), every transport-visible repair must
// re-establish, and when the schedule outnumbers f under a parole clock
// the degraded regime must be flagged (over-budget) and drain
// (reconciled).
func stormVerdict(cfg live.OrchestratorConfig, res *live.ProcResult, stdout io.Writer) int {
	rep := res.Report
	for _, sv := range res.Storm {
		line := fmt.Sprintf("storm: %s on node %d at period %d, heal after %d", sv.Kind, sv.Node, sv.FaultAt, sv.HealAfter)
		if sv.ReconnectChecked {
			if sv.Reconnected {
				line += " — link re-established on every peer"
			} else {
				line += " — LINK NOT RE-ESTABLISHED"
			}
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "budget: %d over-budget verdict(s), %d reconciled\n", res.OverBudget, res.Reconciled)
	bad := false
	for _, sv := range res.Storm {
		if sv.ReconnectChecked && !sv.Reconnected {
			bad = true
			fmt.Fprintf(stdout, "verdict: VIOLATION — %s victim %d did not re-establish after repair\n", sv.Kind, sv.Node)
		}
	}
	if !res.Confined {
		bad = true
		fmt.Fprintf(stdout, "verdict: VIOLATION — bad output outside the fault-attributable window [%v, %v]: %v\n",
			res.FirstFaultAt, res.ConfineEnd, rep.BadIntervals())
	}
	if len(cfg.Faults) > cfg.F && cfg.Forgive > 0 {
		if res.OverBudget == 0 {
			bad = true
			fmt.Fprintf(stdout, "verdict: VIOLATION — > f storm raised no over-budget verdict\n")
		} else if res.Reconciled == 0 {
			bad = true
			fmt.Fprintf(stdout, "verdict: VIOLATION — storm drained but no node reconciled\n")
		}
	}
	if bad {
		return 1
	}
	fmt.Fprintf(stdout, "verdict: storm confined — bad output only inside [%v, %v], every repair rejoined\n",
		res.FirstFaultAt, res.ConfineEnd)
	return 0
}

// runSingle is the historical single-process mode.
func runSingle(topoKind string, nodes, f int, seed uint64, p, m sim.Time, horizon uint64,
	faultKind string, atPeriod uint64, membersN int, joinSpec, retireSpec, replaceSpec string,
	verbose bool, stdout, stderr io.Writer, period time.Duration) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "btrlive: %v\n", err)
		return 2
	}

	topo, err := live.BuildTopology(topoKind, nodes)
	if err != nil {
		return fail(err)
	}
	// Validate the remaining flags up front — before any planning output
	// — with the same loud listing the -topo check gives.
	if err := cliflag.OneOf("fault", faultKind, live.FaultKinds); err != nil {
		return fail(err)
	}
	// -at must land inside the run.
	if err := cliflag.InRange("at", int64(atPeriod), 0, int64(horizon)-1); err != nil {
		return fail(err)
	}
	if err := cliflag.InRange("members", int64(membersN), 0, int64(topo.N)); err != nil {
		return fail(err)
	}
	var events []churnEvent
	for _, spec := range []struct{ name, val string }{
		{"join", joinSpec}, {"retire", retireSpec}, {"replace", replaceSpec},
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
		Seed:     seed,
		Workload: live.DefaultWorkload(p),
		Topology: topo,
		PlanOpts: opts,
		Horizon:  horizon,
	}
	// Membership epochs engage when an initial membership or any churn
	// event is scripted.
	if membersN > 0 || len(events) > 0 {
		k := membersN
		if k == 0 {
			k = topo.N
		}
		for i := 0; i < k; i++ {
			cfg.Members = append(cfg.Members, network.NodeID(i))
		}
	}
	if verbose {
		cfg.OnEvidence = func(node network.NodeID, ev evidence.Evidence, t sim.Time) {
			fmt.Fprintf(stderr, "[%10v] node %d: evidence %s (accused %d)\n", t, node, ev.Kind, ev.Accused)
		}
		cfg.OnSwitch = func(node network.NodeID, from, to string, t sim.Time) {
			fmt.Fprintf(stderr, "[%10v] node %d: mode switch %q -> %q\n", t, node, from, to)
		}
	}
	d, err := live.New(cfg)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "btrlive: %s on %s/%d slots, f=%d, period %v, horizon %d periods (%v wall)\n",
		cfg.Workload.Name, topoKind, topo.N, f, p, horizon, time.Duration(horizon)*period)
	if cfg.Members != nil {
		fmt.Fprintf(stdout, "membership: %d of %d slots active at genesis; %d scripted epoch event(s)\n",
			len(cfg.Members), topo.N, len(events))
	}
	fmt.Fprintf(stdout, "strategy: %d plans, provable recovery bound R = %v\n",
		len(d.Strategy.Plans), d.Strategy.RNeeded)

	for _, ev := range events {
		d.Reconfigure(sim.Time(ev.at)*p, ev.delta)
		fmt.Fprintf(stdout, "schedule: %s (t=%v)\n", ev.desc, sim.Time(ev.at)*p)
	}

	sink := cfg.Workload.Sinks()[0]
	victim := live.FirstSinkNode(d)
	at := sim.Time(atPeriod) * p
	attack, injected, err := live.BuildAttack(faultKind, victim, sink, at)
	if err != nil {
		return fail(err)
	}
	if injected {
		attack.Install(d)
		fmt.Fprintf(stdout, "inject: %s at t=%v (node %d hosts the first-actuating %q replica)\n",
			attack.Name, at, victim, sink)
	}
	wallStart := time.Now()
	rep := d.Run()
	wall := time.Since(wallStart).Round(time.Millisecond)

	fmt.Fprintf(stdout, "ran %v wall; %d actuations, %d evidence, %d mode switches, %d missed, %d wrong\n",
		wall, rep.Actuations, rep.EvidenceTotal(), len(rep.SwitchTimes), rep.MissedPeriods, rep.WrongValues)
	if verbose {
		st := rep.NetStats
		fmt.Fprintf(stderr, "transport: sent=%v delivered=%v dropped=%v shed=%v (backpressure sheds: %d)\n",
			st.MsgsSent, st.MsgsDelivered, st.MsgsDropped, st.MsgsShed, st.TotalShed())
	}
	epochsOK := true
	for _, e := range rep.Epochs {
		if e.Err != "" {
			epochsOK = false
			fmt.Fprintf(stdout, "epoch %d: REJECTED at %v — %s\n", e.Num, e.ProposedAt, e.Err)
			continue
		}
		if e.ActivatedAt == 0 {
			epochsOK = false
			fmt.Fprintf(stdout, "epoch %d -> %s: proposed %v, NEVER ACTIVATED\n", e.Num, e.Members, e.ProposedAt)
			continue
		}
		fmt.Fprintf(stdout, "epoch %d -> %s: proposed %v, committed %v (%d acks), activated %v (switch latency %v, R=%v)\n",
			e.Num, e.Members, e.ProposedAt, e.CommittedAt, e.Acks, e.ActivatedAt,
			e.ActivatedAt-e.ProposedAt, e.R)
	}
	if len(rep.Epochs) != len(events) {
		epochsOK = false
		fmt.Fprintf(stdout, "only %d of %d scripted epoch events were proposed\n", len(rep.Epochs), len(events))
	}
	for _, rec := range rep.Recoveries() {
		fmt.Fprintf(stdout, "fault at %v: measured wall-clock recovery %v\n", rec.FaultAt, rec.Duration())
	}
	// Bad output is attributable only from the injection onward; anything
	// before it (or any bad output at all on an uninjected soak) is
	// spurious and a violation in its own right — recovery accounting
	// must not launder it. Epoch switches must never corrupt output.
	spurious := false
	for _, iv := range rep.BadIntervals() {
		if !injected || iv.Start < at {
			spurious = true
			fmt.Fprintf(stdout, "spurious bad output %v (not attributable to the injected fault)\n", iv)
		}
	}
	max := rep.MaxRecovery()
	bound := rep.MaxEpochR()
	switch {
	case spurious:
		fmt.Fprintf(stdout, "verdict: VIOLATION — bad output outside any injected fault's window (missed=%d wrong=%d)\n",
			rep.MissedPeriods, rep.WrongValues)
		return 1
	case !epochsOK:
		fmt.Fprintln(stdout, "verdict: VIOLATION — scripted membership epochs did not all activate")
		return 1
	case !injected:
		fmt.Fprintln(stdout, "verdict: clean soak, no faults injected")
	case max <= bound:
		fmt.Fprintf(stdout, "verdict: recovered within bound — %v <= R=%v\n", max, bound)
	default:
		fmt.Fprintf(stdout, "verdict: VIOLATION — recovery %v vs R=%v (missed=%d wrong=%d)\n",
			max, bound, rep.MissedPeriods, rep.WrongValues)
		return 1
	}
	return 0
}
