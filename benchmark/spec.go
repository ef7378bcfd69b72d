package main

import (
	"encoding/json"
	"strings"
)

// spec declares one metric: the single table BENCHMARK.json, the output
// and -compare are written from.
type spec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline's median by which a gated
	// end-to-end metric may worsen before a change counts as a regression
	// (0: not gated). BENCHMARK.json has one bound per metric, so it is
	// the tightest the issue sets for the metric on any workload.
	Bound float64
	// From names the workloads that measure the metric; empty means a
	// layer probe, which every traced run takes. A per-layer metric reads
	// 0 in the traced run of a workload not listed.
	From string
}

const runSeconds = 30

var workloadWhy = map[string]string{
	"sim_campaign":     "closed loop, one worker: every byte-deterministic campaign scenario in quick mode; sig, plan, runtime, kernel and simulated network do all the work, no sockets, no wall pacing",
	"live_recovery":    "wall-paced live deployment (full mesh of 8, f=2, period 150 ms), corrupt-all at the first sink's host at period 4: wall scheduler, Bus lanes, detection, evidence, mode switch, recovery against R",
	"client_closed":    "closed loop, 2 sessions, 50% writes against 4 in-process register replicas on loopback: the client quorum engine, Q frames and sockets alone, the serving capacity",
	"client_open_kill": "open loop, 1000 ops/s on a seeded schedule, 10% writes, one replica closed and restarted empty: reads, failed dials, retries and read-repair, with ops due during the fault counted",
}

const (
	fromSim    = "sim_campaign"
	fromLive   = "live_recovery"
	fromClosed = "client_closed"
	fromOpen   = "client_open_kill"
	fromClient = fromClosed + " " + fromOpen
	fromAll    = fromSim + " " + fromLive + " " + fromClient
)

// endToEndSpec are the gated end-to-end metrics: BENCHMARK.json wants
// each of them on every workload, never 0, and holding its bound as
// measured between two sets of runs of the same code.
var endToEndSpec = []spec{
	{Name: "mallocs_per_op", Unit: "count", Better: "lower", Bound: 0.02, From: fromAll},
	{Name: "goodput_frac", Unit: "frac", Better: "higher", Bound: 0.005, From: fromAll},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, From: fromAll},
}

var perLayerSpec = []spec{
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", From: fromAll},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", From: fromSim + " " + fromClient},
	{Name: "recovery_ms", Unit: "ms", Better: "lower", From: fromLive},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", From: fromAll},
	{Name: "rw_syscalls_per_op", Unit: "count", Better: "lower", From: fromClient},

	{Name: "harness.host_probe_ms", Unit: "ms", Better: "lower", From: fromAll},
	{Name: "harness.segment_iqr_frac", Unit: "frac", Better: "lower", From: fromAll},
	{Name: "harness.trace_overhead_frac", Unit: "frac", Better: "lower", From: fromAll},
	{Name: "harness.gomaxprocs", Unit: "count", Better: "higher", From: fromAll},

	{Name: "sig.keygen_ms", Unit: "ms", Better: "lower"},
	{Name: "sig.seal_ns", Unit: "ns", Better: "lower"},
	{Name: "sig.seal_allocs", Unit: "count", Better: "lower"},
	{Name: "sig.seal_memo_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "sig.verify_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "sig.verify_memo_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "sig.batch64_ok_ns_per_env", Unit: "ns", Better: "lower"},
	{Name: "sig.batch64_bogus_ns_per_env", Unit: "ns", Better: "lower"},
	{Name: "sig.verify_hit_frac", Unit: "frac", Better: "higher", From: fromSim},
	{Name: "sig.seal_hit_frac", Unit: "frac", Better: "higher", From: fromSim},
	{Name: "sig.verifies_per_op", Unit: "count", Better: "lower", From: fromSim},
	{Name: "sig.seals_per_op", Unit: "count", Better: "lower", From: fromSim},

	{Name: "wire.msg_append_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.msg_parse_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.msg_parse_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.batch32_append_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.batch32_parse_ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "wire.q_request_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.q_response_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.q_allocs", Unit: "count", Better: "lower"},

	{Name: "evidence.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "evidence.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "evidence.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "evidence.validate_ns", Unit: "ns", Better: "lower"},
	{Name: "evidence.validate_bogus_ns", Unit: "ns", Better: "lower"},
	{Name: "evidence.id_ns", Unit: "ns", Better: "lower"},

	{Name: "plan.build_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.engine_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.engine_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.delta_ms", Unit: "ms", Better: "lower"},
	{Name: "plan.plans", Unit: "count", Better: "lower"},
	{Name: "plan.syntheses_cold", Unit: "count", Better: "lower"},
	{Name: "plan.r_needed_ms", Unit: "ms", Better: "lower"},

	{Name: "sim.kernel_event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.kernel_event_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.kernel_cancel_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.wall_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "sim.wall_lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "sim.wall_idle_cpu_frac", Unit: "frac", Better: "lower"},

	{Name: "network.sim_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "network.sim_deliver_allocs", Unit: "count", Better: "lower"},
	{Name: "network.bus_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "network.bus_deliver_allocs", Unit: "count", Better: "lower"},
	{Name: "network.bus_overload_shed_frac", Unit: "frac", Better: "lower"},
	{Name: "network.bus_overload_evidence_kept_frac", Unit: "frac", Better: "higher"},
	{Name: "network.tcpbus_connect_ms", Unit: "ms", Better: "lower"},
	{Name: "network.tcpbus_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "network.tcpbus_deliver_allocs", Unit: "count", Better: "lower"},
	{Name: "network.tcpbus_rw_syscalls_per_msg", Unit: "count", Better: "lower"},
	{Name: "network.tcpbus_overload_shed_frac", Unit: "frac", Better: "lower"},
	{Name: "network.tcpbus_reconnect_ms", Unit: "ms", Better: "lower"},

	{Name: "core.new_system_ms", Unit: "ms", Better: "lower"},
	{Name: "core.period_us", Unit: "us", Better: "lower"},
	{Name: "core.period_allocs", Unit: "count", Better: "lower"},
	{Name: "core.fault_period_us", Unit: "us", Better: "lower"},
	{Name: "core.recovery_sim_ms", Unit: "ms", Better: "lower"},
	{Name: "core.r_needed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.evidence_total", Unit: "count", Better: "lower"},

	{Name: "campaign.pass_ms", Unit: "ms", Better: "lower", From: fromSim},
	{Name: "campaign.pass_per_probe", Unit: "ratio", Better: "lower", From: fromSim},
	{Name: "campaign.trials_per_pass", Unit: "count", Better: "higher", From: fromSim},
	{Name: "campaign.share.E1", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.E2", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.E3", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.E4", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.E5", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.E6", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.E7", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.E8", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.E9", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.E10", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.C1", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.C2", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.C3", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.C4", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.C6", Unit: "frac", Better: "lower", From: fromSim},
	{Name: "campaign.share.C8", Unit: "frac", Better: "lower", From: fromSim},

	{Name: "live.new_ms", Unit: "ms", Better: "lower"},
	{Name: "live.flood_within_r_frac", Unit: "frac", Better: "higher"},
	{Name: "live.flood_cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "live.detect_ms", Unit: "ms", Better: "lower", From: fromLive},
	{Name: "live.switch_ms", Unit: "ms", Better: "lower", From: fromLive},
	{Name: "live.recovery_over_r", Unit: "ratio", Better: "lower", From: fromLive},
	{Name: "live.missed_periods", Unit: "count", Better: "lower", From: fromLive},
	{Name: "live.wrong_periods", Unit: "count", Better: "lower", From: fromLive},
	{Name: "live.msgs_per_period", Unit: "count", Better: "lower", From: fromLive},
	{Name: "live.evidence_class_frac", Unit: "frac", Better: "lower", From: fromLive},
	{Name: "live.shed_frac", Unit: "frac", Better: "lower", From: fromLive},
	{Name: "live.act_late_p50_ms", Unit: "ms", Better: "lower", From: fromLive},
	{Name: "live.act_late_p99_ms", Unit: "ms", Better: "lower", From: fromLive},
	{Name: "live.util_cores", Unit: "cores", Better: "lower", From: fromLive},
	{Name: "live.alloc_bytes_per_op", Unit: "bytes", Better: "lower", From: fromLive},

	{Name: "client.server_start_ms", Unit: "ms", Better: "lower"},
	{Name: "client.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "client.store_apply_ns", Unit: "ns", Better: "lower"},
	{Name: "client.store_get_ns", Unit: "ns", Better: "lower"},
	{Name: "client.store_allocs", Unit: "count", Better: "lower"},
	{Name: "client.read_p50_ms", Unit: "ms", Better: "lower", From: fromClosed},
	{Name: "client.write_p50_ms", Unit: "ms", Better: "lower", From: fromClosed},
	{Name: "client.closed_p99_ms", Unit: "ms", Better: "lower", From: fromClosed},
	{Name: "client.open_p99_ms", Unit: "ms", Better: "lower", From: fromOpen},
	{Name: "client.open_late_p50_ms", Unit: "ms", Better: "lower", From: fromOpen},
	{Name: "client.open_service_p50_ms", Unit: "ms", Better: "lower", From: fromOpen},
	{Name: "client.open_pre_p50_ms", Unit: "ms", Better: "lower", From: fromOpen},
	{Name: "client.open_fault_p50_ms", Unit: "ms", Better: "lower", From: fromOpen},
	{Name: "client.open_post_p50_ms", Unit: "ms", Better: "lower", From: fromOpen},
	{Name: "client.max_unavail_ms", Unit: "ms", Better: "lower", From: fromOpen},
	{Name: "client.retries_per_kop", Unit: "count", Better: "lower", From: fromClient},
	{Name: "client.repairs_per_kop", Unit: "count", Better: "lower", From: fromClient},
	{Name: "client.ctxsw_per_op", Unit: "count", Better: "lower", From: fromClient},
	{Name: "client.alloc_bytes_per_op", Unit: "bytes", Better: "lower", From: fromClient},
}

// demotedSpec are the issue's other five end-to-end metrics, the first
// five of perLayerSpec. Every untraced run still measures and prints
// them, as measured, on the workloads the issue lists them for, but
// nothing gates them. recovery_ms and rw_syscalls_per_op do not exist on
// every workload, which BENCHMARK.json wants of a gated metric. The
// three times do not repeat within the issue's 0.10 on the closed loops:
// ten runs spread 11 to 20 % and two sets of ten, twenty minutes apart,
// differ by 5 to 10 %, because the host does. The issue's rule for such
// a metric is demotion, not a wider bound, so they are per-layer metrics
// in BENCHMARK.json, which the traced run reports from its untraced
// third.
var demotedSpec = perLayerSpec[:5]

// reportedSpec is every end-to-end metric an untraced run measures and
// prints: the gated ones, which its result line carries, and the
// demoted ones.
var reportedSpec = append(append([]spec(nil), endToEndSpec...), demotedSpec...)

// measuredOn reports whether a run of workload measures s.
func (s spec) measuredOn(workload string) bool {
	return s.From == "" || strings.Contains(" "+s.From+" ", " "+workload+" ")
}

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "btr/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, workloadWhy[w.name]})
	}
	for _, s := range endToEndSpec {
		m.EndToEnd = append(m.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayerSpec {
		m.PerLayer = append(m.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}
