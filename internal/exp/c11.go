package exp

// C11: the client-SLO regime — the serving surface judged from the
// outside. C7 and C10 judge the deployment at the plant (actuations
// within R); C11 attaches what the paper's five-second rule is actually
// *for*: clients. A load generator drives concurrent sessions of
// epoch-aware quorum reads and writes (internal/client) against an
// orchestrated multi-process deployment while a ≤ f process fault lands
// mid-run, and the verdict is client-visible — zero errors (retries
// must absorb the fault) and a longest success gap within the recovery
// bound R plus one detection period and the watchdog margin. Trials are
// wall-clock multi-process runs, so the family joins
// "live"/"liveproc"/"saturation"/"multifault" outside the campaign
// determinism pin.

import (
	"fmt"
	"time"

	"btr/internal/campaign"
	"btr/internal/live"
	"btr/internal/metrics"
)

// c11Clients is the session count per run: enough concurrency that a
// stalled replica shows up in the tail, small enough that a CI host's
// scheduler noise stays out of the verdict columns.
const c11Clients = 8

// c11Case is one (fault, deployment) client-SLO measurement.
type c11Case struct {
	name  string
	topo  string
	nodes int
	f     int
	fault string // "none" = steady state
}

func c11Cases(p campaign.Params) []c11Case {
	cases := []c11Case{
		{"steady", "full-mesh", 4, 1, "none"},
		{"kill-restart", "full-mesh", 4, 1, "kill-restart"},
		{"partition", "full-mesh", 4, 1, "partition"},
	}
	if p.Quick {
		cases = cases[:2]
	}
	return cases
}

// C11Row is one run's client-visible measurement (exported for the
// bundle emitter, which records these as the BENCH_campaign.json
// clientslo section).
type C11Row struct {
	Name     string
	Topology string
	Nodes    int
	F        int
	Fault    string
	Sessions int

	Ops          uint64
	Errors       uint64
	Retries      uint64
	StaleRetries uint64

	P50, P99, P999 time.Duration
	MaxUnavail     time.Duration
	// Bound is the client-visible unavailability budget: the plant bound R
	// plus one detection period and the watchdog margin (clients observe a
	// fault one op-latency after the plant does).
	Bound time.Duration
	// Within: MaxUnavail <= Bound — the SLO verdict for fault runs. Steady
	// runs are additionally judged error-free at p99 (Errors == 0).
	Within bool
}

// runC11Case drives one orchestrated deployment with client load (wall
// clock; the caller holds liveGate).
func runC11Case(c c11Case, seed uint64) (C11Row, error) {
	res, err := live.RunOrchestrator(live.OrchestratorConfig{
		Topo: c.topo, Nodes: c.nodes, F: c.f, Seed: seed,
		Period: c7Period, Margin: c7Margin, Horizon: 10,
		Faults:  procFault(c.fault),
		Clients: c11Clients,
	})
	if err != nil {
		return C11Row{}, err
	}
	if res.SLO == nil {
		return C11Row{}, fmt.Errorf("exp: %s run returned no client SLO report", c.name)
	}
	slo := res.SLO
	return C11Row{
		Name: c.name, Topology: c.topo, Nodes: c.nodes, F: c.f, Fault: c.fault,
		Sessions: slo.Sessions,
		Ops:      slo.Ops, Errors: slo.Errors,
		Retries: slo.Retries, StaleRetries: slo.StaleRetries,
		P50: slo.P50, P99: slo.P99, P999: slo.P999,
		MaxUnavail: slo.MaxUnavail, Bound: res.SLOBound,
		Within: slo.MaxUnavail <= res.SLOBound && slo.Errors == 0,
	}, nil
}

// c11Scenario returns the client-SLO soak.
func c11Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "C11",
		Family: "clientslo",
		Claim:  "quorum clients ride through a <= f process fault with zero client-visible errors and unavailability bounded by R plus detection slack",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, c := range c11Cases(p) {
				c := c
				specs = append(specs, campaign.TrialSpec{
					Name: fmt.Sprintf("clientslo/%s/n=%d/%s", c.topo, c.nodes, c.name),
					Run: func(t *campaign.T) (any, error) {
						liveGate.Lock()
						defer liveGate.Unlock()
						return runC11Case(c, t.TrialSeed())
					},
				})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable(fmt.Sprintf("C11: client-visible SLO through process faults (%d sessions, period %v)", c11Clients, c7Period),
				"case", "topology", "fault", "ops", "errors", "p50", "p99", "p999", "max unavail", "bound", "within")
			for i, c := range c11Cases(p) {
				row, ok := campaign.Value[C11Row](trials[i])
				if !ok {
					t.AddRow(failedRow(c.name), c.topo, c.fault, "-", "-", "-", "-", "-", "-", "-", "-")
					continue
				}
				t.AddRow(row.Name, row.Topology, row.Fault, row.Ops, row.Errors,
					row.P50, row.P99, row.P999, row.MaxUnavail.Round(time.Millisecond),
					row.Bound.Round(time.Millisecond), boolMark(row.Within))
			}
			if note := campaign.FailNote(trials); note != "" {
				t.Note("%s", note)
			}
			t.Note("wall-clock measurements through real sockets — latencies vary run to run; the invariants are 'errors' == 0 and the 'within' column (max unavail <= R + 2·period + margin)")
			return []*metrics.Table{t}
		},
	}
}
