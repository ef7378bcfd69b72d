package live

// The orchestrated run's fault schedule and its judge: checkSchedule
// turns OrchestratorConfig.Faults into the concrete per-victim schedule
// RunOrchestrator drives, and judge holds the finished run to the
// paper's promise — after at most f faults, outputs are correct again
// within R; past f, the breach is detected and flagged instead.

import (
	"fmt"
	"slices"
	"time"

	"btr/internal/adversary"
	"btr/internal/evidence"
	"btr/internal/network"
	"btr/internal/sim"
)

// processFault reports whether kind is driven from the orchestrator
// against a running process (as opposed to self-injected at spawn).
func processFault(kind string) bool {
	b, ok := adversary.Lookup(kind)
	return ok && b.Scope == adversary.Process
}

// checkSchedule resolves cfg.Faults for an n-node deployment
// (adversary.Script.Resolve) and holds it to the orchestrator's own
// rules: an in-process behavior must be the only entry (it rides its
// victim's spec), a process fault repaired from here needs a repair
// delay, and every entry must be aligned to the period — a restarted
// process rejoins at a period boundary — and fit the run
// (At + Heal < horizon), also the kinds nothing repairs ("kill", the
// in-process behaviors).
func checkSchedule(cfg OrchestratorConfig, n int, victim network.NodeID) (adversary.Script, error) {
	sched, err := cfg.Faults.Resolve(n, victim)
	if err != nil {
		return nil, err
	}
	p := cfg.Period
	for _, e := range sched {
		switch {
		case processFault(e.Behavior):
			if e.Behavior != "kill" && e.Heal == 0 {
				return nil, fmt.Errorf("live: fault %s needs a repair delay", e.Behavior)
			}
		case len(sched) > 1:
			return nil, fmt.Errorf("live: in-process fault %s must be the schedule's only entry", e.Behavior)
		}
		if e.At%p != 0 || e.Heal%p != 0 {
			return nil, fmt.Errorf("live: fault %s at %v healed %v later is not aligned to the %v period", e.Behavior, e.At, e.Heal, p)
		}
		if e.At+e.Heal >= sim.Time(cfg.Horizon)*p {
			return nil, fmt.Errorf("live: fault %s at period %d healed %d periods later does not fit horizon %d",
				e.Behavior, e.At/p, e.Heal/p, cfg.Horizon)
		}
	}
	return sched, nil
}

// judge holds one finished run to the recovery promise. It reads the
// resolved schedule, the topology whose links witness each repair, and
// res's plant report, Dones and SLO; it attributes the schedule's
// injection times and the nodes' budget verdicts to the report and fills
// res.Storm, res.Confined, res.ConfineEnd, res.SLOBound and
// res.Violations. The rules:
//
//   - a schedule of at most F entries is held to R (Report.Violations);
//   - a longer one is a storm: its bad output must be confined to
//     [first fault, last repair + parole + R + 2·period + margin], and
//     under a parole clock some node must have flagged it over budget
//     and some node reconciled it;
//   - every repair the transport must show has re-established its links;
//   - clients, when they ran, saw no errors and no unavailability
//     longer than SLOBound = R + 2·period + margin.
func judge(cfg OrchestratorConfig, topo *network.Topology, sched adversary.Script, res *ProcResult) {
	rep := res.Report
	slack := rep.RNeeded + 2*cfg.Period + cfg.Margin
	res.SLOBound = time.Duration(slack) * time.Microsecond

	var lastRepair sim.Time
	for _, e := range sched {
		rep.FaultTimes = append(rep.FaultTimes, e.At)
		end := e.At
		if e.Behavior != "kill" {
			end += e.Heal
		}
		lastRepair = max(lastRepair, end)
	}
	slices.Sort(rep.FaultTimes)
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

	// Confinement: damage may be severe in a > f storm, but it must be
	// fault-attributable — never silent leakage before the first fault or
	// past the drain of the last repair.
	first := sim.Never
	if len(rep.FaultTimes) > 0 {
		first = rep.FaultTimes[0]
	}
	res.ConfineEnd = lastRepair + cfg.Forgive + slack
	res.Confined = true
	for _, iv := range rep.BadIntervals() {
		if iv.Start < first || iv.End > res.ConfineEnd {
			res.Confined = false
		}
	}

	var v []string
	if len(sched) <= cfg.F {
		v = rep.Violations()
	} else {
		if !res.Confined {
			v = append(v, fmt.Sprintf("bad output outside the fault-attributable window [%v, %v]: %v",
				first, res.ConfineEnd, rep.BadIntervals()))
		}
		if cfg.Forgive > 0 && res.OverBudget == 0 {
			v = append(v, "> f storm raised no over-budget verdict")
		}
		if cfg.Forgive > 0 && res.Reconciled == 0 {
			v = append(v, "storm drained but no node reconciled")
		}
	}

	// Peers killed in the schedule are not witnesses for other victims: a
	// killed peer has no counters and a restarted one rejoins on its own
	// clock (possibly still handshaking at horizon) — its rejoin is judged
	// by its own entry, through the links of the peers that lived through
	// it.
	killed := map[network.NodeID]bool{}
	for _, e := range sched {
		if e.Behavior == "kill" || e.Behavior == "kill-restart" {
			killed[e.Node] = true
		}
	}
	for _, e := range sched {
		sv := StormVerdict{Fault: e}
		sv.ReconnectChecked, sv.Reconnected = rejoined(e, topo, res.Dones, killed)
		if sv.ReconnectChecked && !sv.Reconnected {
			v = append(v, fmt.Sprintf("%s victim %d did not re-establish its links after repair", e.Behavior, e.Node))
		}
		res.Storm = append(res.Storm, sv)
	}

	if slo := res.SLO; slo != nil {
		if slo.Errors > 0 {
			v = append(v, fmt.Sprintf("%d client-visible error(s); retries must absorb a <= f fault", slo.Errors))
		}
		if slo.MaxUnavail > res.SLOBound {
			v = append(v, fmt.Sprintf("client-visible unavailability %v exceeds bound %v (R + 2*period + margin)",
				slo.MaxUnavail.Round(time.Millisecond), res.SLOBound))
		}
	}
	res.Violations = v
}

// rejoined judges one entry's repair at the transport: checked is true
// for the kinds whose repair must be visible as re-established links,
// and ok then reports that every witness link redialed (Reconnects >= 1)
// and held through the horizon.
//
// After a kill-restart respawn or a partition heal, the witnesses are
// the links to the victim of every adjacent peer that was not itself
// killed. SIGSTOP is judged through the VICTIM's own links instead: the
// stall outlives the 200ms liveness deadline, so the running peers sever
// the victim's silent connections and the resumed victim must redial
// every one of them. The peer→victim direction is NOT a reliable witness
// — a stopped process's kernel still ACKs, so a peer's outbound
// connection can ride out the stall on kernel buffering (the victim
// drains the backlog on resume) and never needs a redial.
func rejoined(e adversary.Fault, topo *network.Topology, dones map[int]ProcEvent, killed map[network.NodeID]bool) (checked, ok bool) {
	switch e.Behavior {
	case "stop":
		d, alive := dones[int(e.Node)]
		ok = alive && len(d.Links) > 0
		for _, l := range d.Links {
			if !killed[network.NodeID(l.Peer)] && (l.Reconnects < 1 || !l.Connected) {
				ok = false
			}
		}
		return true, ok
	case "kill-restart", "partition":
		ok = true
		for _, peer := range topo.Neighbors(e.Node) {
			if peer != e.Node && killed[peer] {
				continue
			}
			found := false
			for _, l := range dones[int(peer)].Links {
				if network.NodeID(l.Peer) == e.Node {
					found = l.Reconnects >= 1 && l.Connected
				}
			}
			ok = ok && found
		}
		return true, ok
	}
	return false, false
}
