package live

// The orchestrated run's fault schedule and its judge: resolveSchedule
// turns OrchestratorConfig.Faults into the concrete per-victim schedule
// RunOrchestrator drives, and judge holds the finished run to the
// paper's promise — after at most f faults, outputs are correct again
// within R; past f, the breach is detected and flagged instead.

import (
	"fmt"
	"slices"
	"time"

	"btr/internal/adversary"
	"btr/internal/cliflag"
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

// resolveSchedule validates faults against an n-node deployment of
// horizon periods and returns a copy with every default applied: heal
// delays of 0 become 3, and auto victims (-1) resolve to the strategy
// victim first, then the lowest untargeted slots. Every entry must hit a
// distinct node and fit the run (FaultAt + HealAfter < horizon), and an
// in-process behavior must be the only entry.
func resolveSchedule(faults []FaultSpec, n int, victim network.NodeID, horizon uint64) ([]FaultSpec, error) {
	sched := append([]FaultSpec(nil), faults...)
	used := map[int]bool{}
	for i := range sched {
		e := &sched[i]
		if err := cliflag.OneOf("faults", e.Kind, adversary.Names(nil)); err != nil {
			return nil, err
		}
		if !processFault(e.Kind) && len(sched) > 1 {
			return nil, fmt.Errorf("live: in-process fault %s must be the schedule's only entry", e.Kind)
		}
		if e.HealAfter == 0 {
			e.HealAfter = 3
		}
		if e.FaultAt+e.HealAfter >= horizon {
			return nil, fmt.Errorf("live: fault %s at period %d healed %d periods later does not fit horizon %d",
				e.Kind, e.FaultAt, e.HealAfter, horizon)
		}
		if e.Node < 0 {
			continue
		}
		if e.Node >= n {
			return nil, fmt.Errorf("live: fault schedule targets node %d of a %d-node deployment", e.Node, n)
		}
		if used[e.Node] {
			return nil, fmt.Errorf("live: fault schedule targets node %d twice", e.Node)
		}
		used[e.Node] = true
	}
	for i := range sched {
		if sched[i].Node >= 0 {
			continue
		}
		pick := -1
		if !used[int(victim)] {
			pick = int(victim)
		} else {
			for slot := 0; slot < n; slot++ {
				if !used[slot] {
					pick = slot
					break
				}
			}
		}
		if pick < 0 {
			return nil, fmt.Errorf("live: fault schedule has more entries than nodes")
		}
		sched[i].Node = pick
		used[pick] = true
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
func judge(cfg OrchestratorConfig, topo *network.Topology, sched []FaultSpec, res *ProcResult) {
	rep := res.Report
	slack := rep.RNeeded + 2*cfg.Period + cfg.Margin
	res.SLOBound = time.Duration(slack) * time.Microsecond

	var lastRepair sim.Time
	for _, e := range sched {
		rep.FaultTimes = append(rep.FaultTimes, sim.Time(e.FaultAt)*cfg.Period)
		end := e.FaultAt
		if e.Kind != "kill" {
			end += e.HealAfter
		}
		lastRepair = max(lastRepair, sim.Time(end)*cfg.Period)
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
	killed := map[int]bool{}
	for _, e := range sched {
		if e.Kind == "kill" || e.Kind == "kill-restart" {
			killed[e.Node] = true
		}
	}
	for _, e := range sched {
		sv := StormVerdict{Kind: e.Kind, Node: e.Node, FaultAt: e.FaultAt, HealAfter: e.HealAfter}
		sv.ReconnectChecked, sv.Reconnected = rejoined(e, topo, res.Dones, killed)
		if sv.ReconnectChecked && !sv.Reconnected {
			v = append(v, fmt.Sprintf("%s victim %d did not re-establish its links after repair", e.Kind, e.Node))
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
func rejoined(e FaultSpec, topo *network.Topology, dones map[int]ProcEvent, killed map[int]bool) (checked, ok bool) {
	switch e.Kind {
	case "stop":
		d, alive := dones[e.Node]
		ok = alive && len(d.Links) > 0
		for _, l := range d.Links {
			if !killed[l.Peer] && (l.Reconnects < 1 || !l.Connected) {
				ok = false
			}
		}
		return true, ok
	case "kill-restart", "partition":
		ok = true
		for _, peer := range topo.Neighbors(network.NodeID(e.Node)) {
			if int(peer) != e.Node && killed[int(peer)] {
				continue
			}
			found := false
			for _, l := range dones[int(peer)].Links {
				if l.Peer == e.Node {
					found = l.Reconnects >= 1 && l.Connected
				}
			}
			ok = ok && found
		}
		return true, ok
	}
	return false, false
}
