package live

import (
	"strings"
	"testing"
	"time"

	"btr/internal/adversary"
	"btr/internal/client"
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/metrics"
	"btr/internal/runtime"
	"btr/internal/sim"
)

// TestJudge pins every rule of the orchestrated run's judge, one row
// each, on synthetic plant reports, node events, done events and SLO
// reports: no processes, no wall clock.
func TestJudge(t *testing.T) {
	topo, err := ProcTopology("full-mesh", 4)
	if err != nil {
		t.Fatal(err)
	}
	const (
		r      = 4 * procPeriod
		at     = 3 * procPeriod
		parole = 2 * procPeriod
	)
	g := DefaultWorkload(procPeriod)
	report := func(bad ...metrics.Interval) *Report {
		rep := core.NewPlant(g, 30, r, nil).Report()
		tl := rep.PerSink[g.Sinks()[0]]
		for _, iv := range bad {
			tl.Set(iv.Start, false)
			tl.Set(iv.End, true)
		}
		return rep
	}
	bad := func(start, end sim.Time) metrics.Interval { return metrics.Interval{Start: start, End: end} }
	// verdicts: over-budget and reconciled verdicts accepted by node 0,
	// as the event lines the node processes stream.
	verdicts := func(overBudget, reconciled int) []runtime.Event {
		var out []runtime.Event
		for i := 0; i < overBudget+reconciled; i++ {
			kind := evidence.KindOverBudget
			if i >= overBudget {
				kind = evidence.KindReconciled
			}
			out = append(out, runtime.Event{Kind: runtime.EvidenceAccepted, At: at + sim.Time(i)*procPeriod,
				EvidenceKind: kind, Accused: -1, Reporter: 1})
		}
		return out
	}
	// dones: every node finished with every link redialed reconnects
	// times and held.
	dones := func(reconnects int) map[int]ProcEvent {
		out := map[int]ProcEvent{}
		for n := 0; n < topo.N; n++ {
			d := ProcEvent{Ev: "done", Node: n}
			for p := 0; p < topo.N; p++ {
				if p != n {
					d.Links = append(d.Links, ProcLink{Peer: p, Reconnects: reconnects, Connected: true})
				}
			}
			out[n] = d
		}
		return out
	}
	one := func(kind string) adversary.Script {
		return adversary.Script{{Behavior: kind, Node: 1, At: at, Heal: 3 * procPeriod}}
	}
	storm := adversary.Script{
		{Behavior: "kill-restart", Node: 1, At: at, Heal: 3 * procPeriod},
		{Behavior: "partition", Node: 2, At: 5 * procPeriod, Heal: 3 * procPeriod},
	}
	// The storm drains by the last heal (period 8) plus parole, R and
	// the R + 2·period + margin slack.
	confineEnd := 8*procPeriod + parole + r + 2*procPeriod + procMargin
	sloBound := time.Duration(r+2*procPeriod+procMargin) * time.Microsecond

	cases := []struct {
		name    string
		sched   adversary.Script
		forgive sim.Time
		rep     *Report
		events  []runtime.Event
		dones   map[int]ProcEvent
		slo     *client.SLOReport
		want    string // the one violation expected; "" = none
	}{
		{"clean soak", nil, 0, report(), verdicts(0, 0), dones(0), nil, ""},
		{"soak with bad output", nil, 0, report(bad(at, at+procPeriod)), verdicts(0, 0), dones(0), nil, "spurious"},
		{"<= f: bad output before the fault", one("corrupt-all"), 0, report(bad(at-procPeriod, at+procPeriod)), verdicts(0, 0), dones(0), nil, "spurious"},
		{"<= f: recovery within R", one("corrupt-all"), 0, report(bad(at, at+r)), verdicts(0, 0), dones(0), nil, ""},
		{"<= f: recovery over R", one("corrupt-all"), 0, report(bad(at, at+r+procPeriod)), verdicts(0, 0), dones(0), nil, "recovery"},
		{"> f: confined, flagged and reconciled", storm, parole, report(bad(at, at+r+procPeriod)), verdicts(1, 1), dones(1), nil, ""},
		{"> f: bad output before the first fault", storm, parole, report(bad(at-procPeriod, at)), verdicts(1, 1), dones(1), nil, "fault-attributable window"},
		{"> f: bad output past the drain", storm, parole, report(bad(at, confineEnd+procPeriod)), verdicts(1, 1), dones(1), nil, "fault-attributable window"},
		{"> f: no over-budget verdict", storm, parole, report(), verdicts(0, 1), dones(1), nil, "over-budget"},
		{"> f: no reconciled verdict", storm, parole, report(), verdicts(1, 0), dones(1), nil, "reconciled"},
		{"> f in classic mode needs no budget verdicts", storm, 0, report(), verdicts(0, 0), dones(1), nil, ""},
		{"kill-restart victim's peers redialed", one("kill-restart"), 0, report(), verdicts(0, 0), dones(1), nil, ""},
		{"kill-restart victim's peers never redialed", one("kill-restart"), 0, report(), verdicts(0, 0), dones(0), nil, "re-establish"},
		{"stopped victim never redialed", one("stop"), 0, report(), verdicts(0, 0), dones(0), nil, "re-establish"},
		{"clients within the SLO bound", nil, 0, report(), verdicts(0, 0), dones(0), &client.SLOReport{Ops: 1, MaxUnavail: sloBound}, ""},
		{"client-visible errors", nil, 0, report(), verdicts(0, 0), dones(0), &client.SLOReport{Ops: 1, Errors: 2}, "client-visible error"},
		{"client unavailability over the bound", nil, 0, report(), verdicts(0, 0), dones(0), &client.SLOReport{Ops: 1, MaxUnavail: sloBound + time.Millisecond}, "unavailability"},
	}
	for _, tc := range cases {
		cfg := OrchestratorConfig{F: 1, Period: procPeriod, Margin: procMargin, Horizon: 30, Forgive: tc.forgive}
		for _, ev := range tc.events {
			tc.rep.Observe(ev)
		}
		res := &ProcResult{Report: tc.rep, Dones: tc.dones, SLO: tc.slo}
		judge(cfg, topo, tc.sched, res)
		switch {
		case tc.want == "" && len(res.Violations) > 0:
			t.Errorf("%s: violations %q, want none", tc.name, res.Violations)
		case tc.want != "" && (len(res.Violations) != 1 || !strings.Contains(res.Violations[0], tc.want)):
			t.Errorf("%s: violations %q, want exactly one naming %q", tc.name, res.Violations, tc.want)
		}
		if res.SLOBound != sloBound {
			t.Errorf("%s: SLO bound %v, want %v", tc.name, res.SLOBound, sloBound)
		}
		if len(res.Storm) != len(tc.sched) {
			t.Errorf("%s: %d storm verdicts for %d entries", tc.name, len(res.Storm), len(tc.sched))
		}
	}
}
