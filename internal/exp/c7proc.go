package exp

// C7: multi-process deployment soak. C5 exercises the wall-clock executor
// with every node in one process over the channel transport; C7 goes the
// last step the paper's deployment story implies: one OS process per node
// over real TCP sockets (network.TCPBus), orchestrated and judged by a
// parent acting as the physical plant. Faults are injected against real
// processes — the in-process catalog plus SIGKILL-and-restart and
// userspace partitions — and the claim is the same as everywhere else:
// measured recovery within the provable bound R, with the transport-level
// addendum that repaired links demonstrably re-establish. Like C5 its
// tables carry real timings and are exempt from the determinism pin (the
// filters skip Family == "liveproc").
//
// The host binary must call live.MaybeRunNodeProc() at the top of main or
// TestMain: the orchestrator re-executes os.Executable() as node
// processes, and without the hook those re-executions would run the
// campaign recursively instead of becoming nodes.

import (
	"fmt"

	"btr/internal/adversary"
	"btr/internal/campaign"
	"btr/internal/live"
	"btr/internal/metrics"
	"btr/internal/sim"
)

// c7Period/c7Margin are wider still than C5's: an orchestrated run
// multiplies the executor count by the node count on possibly one core,
// and every hop crosses real sockets plus OS scheduling latency (see
// live.ProcTopology for the link model this implies).
const (
	c7Period = 500 * sim.Millisecond
	c7Margin = 200 * sim.Millisecond
)

type c7Case struct {
	topo  string
	nodes int
	f     int
	fault string
}

func c7Cases(p campaign.Params) []c7Case {
	cases := []c7Case{
		{"full-mesh", 4, 1, "corrupt-all"},
		{"full-mesh", 4, 1, "kill-restart"},
		{"full-mesh", 4, 1, "partition"},
		{"ring", 4, 1, "corrupt-all"},
	}
	if p.Quick {
		cases = cases[:2]
	}
	return cases
}

// C7Row is one orchestrated run's measurement (exported for the
// bundle emitter, which records these as the BENCH_campaign.json
// liveproc section).
type C7Row struct {
	Topology string
	Nodes    int
	F        int
	Fault    string
	Recovery sim.Time // measured wall-clock recovery at the plant (0 = masked)
	Bound    sim.Time // provable R
	Missed   int
	Wrong    int
	// ReconnectChecked is set for faults whose repair must be visible at
	// the transport; Reconnected then reports the supervised-redial verdict.
	ReconnectChecked bool
	Reconnected      bool
}

// foldReconnect folds a run's per-victim transport verdicts: checked when
// any entry's repair must show at the transport, reconnected when every
// such entry re-established its links.
func foldReconnect(storm []live.StormVerdict) (checked, reconnected bool) {
	reconnected = true
	for _, sv := range storm {
		if sv.ReconnectChecked {
			checked = true
			reconnected = reconnected && sv.Reconnected
		}
	}
	return checked, checked && reconnected
}

// procFault is the orchestrated one-fault schedule: fault against the
// strategy victim at period 3, repaired 3 periods later; "none" is the
// empty schedule, a soak.
func procFault(fault string) adversary.Script {
	if fault == "none" {
		return nil
	}
	return adversary.Script{{Behavior: fault, Node: -1, At: 3 * c7Period, Heal: 3 * c7Period}}
}

// c7Scenario returns the multi-process deployment soak.
func c7Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "C7",
		Family: "liveproc",
		Claim:  "one OS process per node over real TCP sockets recovers within R, including SIGKILL-and-restart with supervised link re-establishment",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, c := range c7Cases(p) {
				c := c
				specs = append(specs, campaign.TrialSpec{
					Name: fmt.Sprintf("liveproc/%s/n=%d/%s", c.topo, c.nodes, c.fault),
					Run: func(t *campaign.T) (any, error) {
						liveGate.Lock()
						defer liveGate.Unlock()
						res, err := live.RunOrchestrator(live.OrchestratorConfig{
							Topo: c.topo, Nodes: c.nodes, F: c.f, Seed: t.TrialSeed(),
							Period: c7Period, Margin: c7Margin, Horizon: 10,
							Faults: procFault(c.fault),
						})
						if err != nil {
							return nil, err
						}
						rep := res.Report
						row := C7Row{
							Topology: c.topo, Nodes: c.nodes, F: c.f, Fault: c.fault,
							Recovery: rep.MaxRecovery(), Bound: rep.RNeeded,
							Missed: rep.MissedPeriods, Wrong: rep.WrongValues,
						}
						row.ReconnectChecked, row.Reconnected = foldReconnect(res.Storm)
						return row, nil
					},
				})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable(fmt.Sprintf("C7: multi-process TCP deployment soak (one process per node, period %v)", c7Period),
				"topology", "nodes", "fault", "recovery", "bound R", "within R", "reconnect")
			for _, c := range c7Cases(p) {
				found := false
				for _, tr := range trials {
					row, ok := campaign.Value[C7Row](tr)
					if !ok || row.Topology != c.topo || row.Fault != c.fault {
						continue
					}
					found = true
					reconnect := "n/a"
					if row.ReconnectChecked {
						reconnect = boolMark(row.Reconnected)
					}
					t.AddRow(c.topo, c.nodes, c.fault, row.Recovery, row.Bound,
						boolMark(row.Recovery <= row.Bound), reconnect)
				}
				if !found {
					t.AddRow(failedRow(c.topo), c.nodes, c.fault, "-", "-", "-", "-")
				}
			}
			if note := campaign.FailNote(trials); note != "" {
				t.Note("%s", note)
			}
			t.Note("wall-clock measurements across OS processes — values vary run to run; the invariants are the 'within R' and 'reconnect' columns")
			return []*metrics.Table{t}
		},
	}
}
