package live

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"btr/internal/adversary"
	"btr/internal/evidence"
	"btr/internal/network"
	"btr/internal/runtime"
	"btr/internal/sim"
)

// TestMain lets this test binary double as the node-process binary: the
// orchestrator re-executes os.Executable() with BTR_PROC_SPEC set, and
// MaybeRunNodeProc turns that re-execution into a deployment node
// instead of a second test run.
func TestMain(m *testing.M) {
	MaybeRunNodeProc()
	os.Exit(m.Run())
}

// procPeriod/procMargin are deliberately generous, far beyond C5's: an
// orchestrated run multiplies the executor count by the node count on
// possibly ONE core (CI containers), where the OS scheduler's timeslice
// latency alone can stall a cross-process delivery for tens of
// milliseconds, and the plant judgment additionally crosses pipes. The
// margin must dominate worst-case CFS latency or watchdogs fire on
// healthy links and the cluster mode-flaps before any fault.
const (
	procPeriod = 500 * sim.Millisecond
	procMargin = 200 * sim.Millisecond
)

// orchestrate runs one fault at period 3 of a 10-period run and fails
// the test on any violation the judge found.
func orchestrate(t *testing.T, fault string, clients int) *ProcResult {
	t.Helper()
	res, err := RunOrchestrator(OrchestratorConfig{
		Topo: "full-mesh", Nodes: 4, F: 1, Seed: 7,
		Period: procPeriod, Margin: procMargin, Horizon: 10,
		Faults: adversary.Script{{Behavior: fault, Node: -1, At: 3 * procPeriod, Heal: 3 * procPeriod}}, Clients: clients,
	})
	if err != nil {
		t.Fatalf("orchestrated %s run failed: %v", fault, err)
	}
	for _, v := range res.Violations {
		t.Error(v)
	}
	return res
}

// TestOrchestratedCorruptRecoversWithinR is the cross-process analogue
// of C5's headline row: a Byzantine victim corrupting everything it
// sends, detected and excluded by real processes over real sockets
// within the provable bound.
func TestOrchestratedCorruptRecoversWithinR(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process wall-clock run")
	}
	res := orchestrate(t, "corrupt-all", 0)
	// Both sink replicas act at the same logical offset, so whether the
	// plant samples the corrupt or the correct command first is a real
	// physical race across processes — WrongValues may legitimately be 0.
	// What must hold, read from the merged event stream: every surviving
	// node accepted evidence naming the victim and switched modes. A
	// proof names its node in Accused; a path accusation accuses a path
	// (Accused -1) and names the host its missing record should have come
	// from in Suspect.
	named, switched := map[network.NodeID]bool{}, map[network.NodeID]bool{}
	for _, ev := range res.Events {
		switch ev.Kind {
		case runtime.EvidenceAccepted:
			if ev.Accused == res.Victim || ev.EvidenceKind == evidence.KindPathAccusation && ev.Suspect == res.Victim {
				named[ev.Node] = true
			}
		case runtime.ModeSwitch:
			switched[ev.Node] = true
		}
	}
	for n := network.NodeID(0); n < 4; n++ {
		if n == res.Victim {
			continue
		}
		if !named[n] {
			t.Errorf("node %d accepted no evidence naming victim %d — the corruption was not detected", n, res.Victim)
		}
		if !switched[n] {
			t.Errorf("node %d never switched modes", n)
		}
	}
	if len(res.Report.SwitchTimes) < len(switched) || res.Report.EvidenceTotal() == 0 {
		t.Errorf("the report's fold missed the stream: %d switch times, evidence %v",
			len(res.Report.SwitchTimes), res.Report.EvidenceByKind)
	}
	for n, e := range res.Exits {
		if e != "" {
			t.Errorf("node %d exited dirty: %s", n, e)
		}
	}
}

// TestOrchestratedKillRestartReconnects is the tentpole's acceptance
// scenario: SIGKILL the victim process mid-run, respawn it, and require
// both bounded recovery and transport-level rejoin (every adjacent
// peer's supervised link redials and holds).
func TestOrchestratedKillRestartReconnects(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process wall-clock run")
	}
	res := orchestrate(t, "kill-restart", 0)
	if len(res.Storm) != 1 || !res.Storm[0].ReconnectChecked {
		t.Fatalf("kill-restart run did not check reconnection: %+v", res.Storm)
	}
	if e := res.Exits[int(res.Victim)]; !strings.Contains(e, "killed") {
		t.Errorf("victim's first incarnation should have died by signal, got exit %q", e)
	}
}

// TestOrchestratedStopRecoversWithinR is the SIGSTOP gate: freeze the
// victim process mid-run with SIGSTOP — a fault no in-process simulator
// can express, the process is alive but makes no progress — and require
// that peers detect the stall through the transport's liveness deadline,
// fail over within the provable bound R, and that the resumed victim
// redials every peer after SIGCONT (the stall outlives the liveness
// deadline, so the running peers sever the victim's silent links; the
// peer→victim direction may legitimately ride out the stall on kernel
// buffering, so the victim's own links are the witnesses).
func TestOrchestratedStopRecoversWithinR(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process wall-clock run")
	}
	res := orchestrate(t, "stop", 0)
	if len(res.Storm) != 1 || !res.Storm[0].ReconnectChecked {
		t.Fatalf("stop run did not check reconnection: %+v", res.Storm)
	}
	// SIGCONT resumes the process; it must drain to the horizon and exit
	// clean, not die of the stall.
	if e, ok := res.Exits[int(res.Victim)]; !ok || e != "" {
		t.Errorf("stopped victim should resume and exit clean, got exit %q (present=%v)", e, ok)
	}
}

// TestOrchestratedStormFlagsOverBudget drives two concurrent
// process-level faults — more than f=1 — against a parole-clock
// deployment: SIGKILL+respawn of one victim overlapping a userspace
// partition of another. The classic guarantee is suspended while both
// are active, so the verdict is detect-and-apologize: some node must
// flood a signed over-budget verdict (and reconcile after the storm
// drains), every bad interval must be fault-attributable (confined), and
// both victims' links must re-establish after their independent heals.
func TestOrchestratedStormFlagsOverBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process wall-clock run")
	}
	res, err := RunOrchestrator(OrchestratorConfig{
		Topo: "full-mesh", Nodes: 4, F: 1, Seed: 7,
		Period: procPeriod, Margin: procMargin, Horizon: 16,
		Faults: adversary.Script{
			{Behavior: "kill-restart", Node: -1, At: 3 * procPeriod, Heal: 3 * procPeriod},
			{Behavior: "partition", Node: -1, At: 5 * procPeriod, Heal: 3 * procPeriod},
		},
		Forgive: 2 * procPeriod,
	})
	if err != nil {
		t.Fatalf("storm run failed: %v", err)
	}
	if len(res.Storm) != 2 {
		t.Fatalf("expected 2 storm verdicts, got %+v", res.Storm)
	}
	if res.Storm[0].Node == res.Storm[1].Node {
		t.Fatalf("storm entries share victim %d", res.Storm[0].Node)
	}
	for _, sv := range res.Storm {
		if !sv.ReconnectChecked {
			t.Errorf("%s on node %d was not reconnect-checked", sv.Behavior, sv.Node)
		} else if !sv.Reconnected {
			t.Errorf("%s victim %d did not re-establish on every peer: dones=%+v", sv.Behavior, sv.Node, res.Dones)
		}
	}
	verdicts := res.Report.EvidenceByKind
	if verdicts[evidence.KindOverBudget] == 0 {
		t.Errorf("> f storm raised no over-budget verdict (evidence %v)", verdicts)
	}
	if verdicts[evidence.KindReconciled] == 0 {
		t.Errorf("storm drained but no node reconciled (evidence %v)", verdicts)
	}
	if !res.Confined {
		t.Errorf("bad output outside the attributable window [%v, %v]: %+v",
			res.Report.FaultTimes[0], res.ConfineEnd, res.Report.BadIntervals())
	}
	if len(res.Violations) > 0 {
		t.Errorf("storm judged violated: %q", res.Violations)
	}
}

// TestRunNodeProcValidatesSpec pins the child-side error paths: they
// must fail loudly before any network activity.
func TestRunNodeProcValidatesSpec(t *testing.T) {
	base := ProcSpec{Node: 0, Topo: "full-mesh", Nodes: 4, F: 1, Seed: 1,
		PeriodUS: int64(procPeriod), MarginUS: int64(procMargin), Horizon: 5}
	for name, mutate := range map[string]func(*ProcSpec){
		"unknown topology":    func(s *ProcSpec) { s.Topo = "mesh" },
		"node out of range":   func(s *ProcSpec) { s.Node = 4 },
		"negative node":       func(s *ProcSpec) { s.Node = -1 },
		"zero period":         func(s *ProcSpec) { s.PeriodUS = 0 },
		"zero horizon":        func(s *ProcSpec) { s.Horizon = 0 },
		"short address slice": func(s *ProcSpec) { s.Addrs = []string{"127.0.0.1:1"} },
		// A non-nil empty vector means dynamic ports exactly like nil: with
		// no peers line on stdin the child must error out waiting for it,
		// not reach NewTCPBus with zero addresses (which panics).
		"empty address slice": func(s *ProcSpec) { s.Addrs = []string{} },
		"fault at no node":    func(s *ProcSpec) { s.Fault = &adversary.Fault{Behavior: "crash", Node: 4} },
	} {
		spec := base
		mutate(&spec)
		if err := RunNodeProc(spec, strings.NewReader(""), io.Discard); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestOrchestratorValidatesConfig pins the parent-side error paths.
func TestOrchestratorValidatesConfig(t *testing.T) {
	const p = procPeriod
	valid := OrchestratorConfig{Topo: "full-mesh", Nodes: 4, F: 1, Seed: 1,
		Period: p, Margin: procMargin, Horizon: 10,
		Faults: adversary.Script{{Behavior: "kill", Node: -1, At: 3 * p, Heal: 3 * p}}}
	stop := func(node network.NodeID, at sim.Time) adversary.Fault {
		return adversary.Fault{Behavior: "stop", Node: node, At: at, Heal: 3 * p}
	}
	for name, mutate := range map[string]func(*OrchestratorConfig){
		"unknown fault":         func(c *OrchestratorConfig) { c.Faults[0].Behavior = "kil" },
		"unknown topology":      func(c *OrchestratorConfig) { c.Topo = "mesh" },
		"zero period":           func(c *OrchestratorConfig) { c.Period = 0 },
		"fault outside run":     func(c *OrchestratorConfig) { c.Faults[0].At = 9 * p },
		"heal beyond horizon":   func(c *OrchestratorConfig) { c.Faults[0].Heal = 7 * p },
		"fault between periods": func(c *OrchestratorConfig) { c.Faults[0].At = 3*p + 1 },
		"heal between periods":  func(c *OrchestratorConfig) { c.Faults[0].Heal = p / 2 },
		"repaired fault without a heal": func(c *OrchestratorConfig) {
			c.Faults = adversary.Script{{Behavior: "stop", Node: -1, At: 3 * p}}
		},
		"catalog kind beside another entry": func(c *OrchestratorConfig) {
			c.Faults = adversary.Script{{Behavior: "corrupt-all", Node: -1, At: 3 * p, Heal: 3 * p}, stop(-1, 3*p)}
		},
		"schedule duplicate victim": func(c *OrchestratorConfig) {
			c.Faults = adversary.Script{stop(1, 3*p), {Behavior: "partition", Node: 1, At: 4 * p, Heal: 3 * p}}
		},
		"schedule victim out of range": func(c *OrchestratorConfig) {
			c.Faults = adversary.Script{stop(4, 3*p)}
		},
		"schedule beyond horizon": func(c *OrchestratorConfig) {
			c.Faults = adversary.Script{{Behavior: "partition", Node: -1, At: 8 * p, Heal: 3 * p}}
		},
		"negative clients":         func(c *OrchestratorConfig) { c.Clients = -1 },
		"ops rate without clients": func(c *OrchestratorConfig) { c.OpsRate = 100 },
		"clients need two periods": func(c *OrchestratorConfig) {
			c.Clients = 4
			c.Horizon = 1
			c.Faults = nil
		},
		"schedule larger than cluster": func(c *OrchestratorConfig) {
			c.Faults = adversary.Script{stop(-1, 3*p), stop(-1, 3*p), stop(-1, 3*p), stop(-1, 3*p), stop(-1, 3*p)}
		},
	} {
		cfg := valid
		cfg.Faults = slices.Clone(valid.Faults)
		mutate(&cfg)
		if _, err := RunOrchestrator(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// writeStubNode writes an executable that impersonates a node process
// but wedges at the given stage: "never-ready" prints nothing at all;
// "never-up" prints a ready line and then hangs; "first-wedged" wedges
// only node 0 and lets the rest report ready. exec replaces the shell
// so the orchestrator's SIGKILL reaps the whole stub.
func writeStubNode(t *testing.T, mode string) string {
	t.Helper()
	var script string
	switch mode {
	case "never-ready":
		script = "#!/bin/sh\nexec sleep 600\n"
	case "never-up":
		script = "#!/bin/sh\necho '{\"ev\":\"ready\",\"addr\":\"127.0.0.1:1\"}'\nexec sleep 600\n"
	case "first-wedged":
		script = "#!/bin/sh\ncase \"$BTR_PROC_SPEC\" in\n" +
			"'{\"node\":0'*) exec sleep 600 ;;\n" +
			"*) echo '{\"ev\":\"ready\",\"addr\":\"127.0.0.1:1\"}'; exec sleep 600 ;;\nesac\n"
	default:
		t.Fatalf("unknown stub mode %q", mode)
	}
	path := filepath.Join(t.TempDir(), "stub-node")
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatalf("write stub: %v", err)
	}
	return path
}

// TestOrchestratorBarrierTimeoutKillsStragglers is the pinned regression
// for the barrier-hang bug: a child that wedges before emitting its
// barrier line used to stall RunOrchestrator until the hard timeout
// (horizon grace + 60s). The bounded barrier must return promptly, kill
// the stragglers, and name the nodes that never reported.
func TestOrchestratorBarrierTimeoutKillsStragglers(t *testing.T) {
	for mode, want := range map[string]struct {
		barrier string
		nodes   string
	}{
		"never-ready":  {"ready barrier", "[0 1 2 3]"},
		"never-up":     {"up barrier", "[0 1 2 3]"},
		"first-wedged": {"ready barrier", "[0]"},
	} {
		mode, want := mode, want
		t.Run(mode, func(t *testing.T) {
			t.Parallel()
			stub := writeStubNode(t, mode)
			start := time.Now()
			_, err := RunOrchestrator(OrchestratorConfig{
				Exe: stub, Topo: "full-mesh", Nodes: 4, F: 1, Seed: 1,
				Period: procPeriod, Margin: procMargin, Horizon: 10,
				BarrierTimeout: 2 * time.Second,
			})
			elapsed := time.Since(start)
			if err == nil {
				t.Fatal("orchestrator accepted a cluster of wedged stubs")
			}
			if elapsed > 20*time.Second {
				t.Fatalf("barrier breach took %v — the bounded wait did not fire", elapsed)
			}
			if !strings.Contains(err.Error(), want.barrier) {
				t.Errorf("error %q does not name the %s", err, want.barrier)
			}
			if !strings.Contains(err.Error(), want.nodes) {
				t.Errorf("error %q does not name the wedged nodes %s", err, want.nodes)
			}
		})
	}
}

// TestOrchestratedClientLoadMeetsSLO drives the full serving surface:
// client sessions performing quorum reads/writes against the register
// service of an orchestrated cluster THROUGH a kill-restart of one
// replica. With n−f=3 of 4 replicas alive throughout, the client-visible
// story must be: zero errors, and the longest unavailability window
// bounded by the recovery bound R plus scheduling slack.
func TestOrchestratedClientLoadMeetsSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process wall-clock run")
	}
	res := orchestrate(t, "kill-restart", 16)
	if res.SLO == nil {
		t.Fatal("run with Clients > 0 produced no SLO report")
	}
	if res.SLO.Ops == 0 {
		t.Fatal("client sessions completed no ops")
	}
}
