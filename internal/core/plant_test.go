package core

import (
	"testing"

	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/sim"
)

// TestPlantJudge pins the one correctness judge every mode shares: the
// first command per (sink, period) is the plant's, judged at the
// deadline against the oracle and the arrival cutoff.
func TestPlantJudge(t *testing.T) {
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	sink := g.Sinks()[0]
	want, bogus := []byte("correct"), []byte("bogus")
	oracle := func(flow.TaskID, uint64) []byte { return want }
	const deadline = 20 * sim.Millisecond
	type cmd struct {
		value []byte
		at    sim.Time
	}
	cases := []struct {
		name          string
		cmds          []cmd
		latest        sim.Time
		missed, wrong int
	}{
		{"correct", []cmd{{want, 5}}, sim.Never, 0, 0},
		{"absent", nil, sim.Never, 1, 0},
		{"later than latest", []cmd{{want, deadline + 2}}, deadline + 1, 1, 0},
		{"wrong value", []cmd{{bogus, 5}}, sim.Never, 0, 1},
		{"second correct command does not override a wrong first", []cmd{{bogus, 5}, {want, 6}}, sim.Never, 0, 1},
		// The orchestrator passes nil for a value it cannot hex-decode.
		{"undecodable orchestrator value", []cmd{{nil, 5}}, sim.Never, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPlant(g, 1, 0, oracle)
			for i, c := range tc.cmds {
				if took := p.Actuate(sink, 0, c.value, c.at); took != (i == 0) {
					t.Errorf("command %d: Actuate = %v, want %v (first command wins)", i, took, i == 0)
				}
			}
			p.Judge(sink, 0, deadline, tc.latest)
			rep := p.Report()
			if rep.MissedPeriods != tc.missed || rep.WrongValues != tc.wrong {
				t.Errorf("missed=%d wrong=%d, want missed=%d wrong=%d",
					rep.MissedPeriods, rep.WrongValues, tc.missed, tc.wrong)
			}
			ok := tc.missed+tc.wrong == 0
			if bad := rep.BadIntervals(); (len(bad) == 0) != ok {
				t.Errorf("bad intervals %v for a period judged ok=%v", bad, ok)
			}
		})
	}
}

// TestReportViolations pins the recovery rule of a ≤ f run on report
// fixtures: bad output is attributable only from the first fault on,
// and the worst recovery must meet the largest epoch bound.
func TestReportViolations(t *testing.T) {
	const period, r = 25 * sim.Millisecond, 100 * sim.Millisecond
	g := flow.Chain(3, period, sim.Millisecond, 64, flow.CritA)
	report := func(faults []sim.Time, epochs []EpochRow, bad ...metrics.Interval) *Report {
		rep := NewPlant(g, 40, r, nil).Report()
		tl := rep.PerSink[g.Sinks()[0]]
		for _, iv := range bad {
			tl.Set(iv.Start, false)
			tl.Set(iv.End, true)
		}
		rep.FaultTimes, rep.Epochs = faults, epochs
		return rep
	}
	at := 4 * period
	cases := []struct {
		name string
		rep  *Report
		want int
	}{
		{"clean soak", report(nil, nil), 0},
		{"soak with bad output", report(nil, nil, metrics.Interval{Start: at, End: at + period}), 1},
		{"bad output before the fault", report([]sim.Time{at}, nil, metrics.Interval{Start: at - period, End: at + period}), 1},
		{"recovery within R", report([]sim.Time{at}, nil, metrics.Interval{Start: at, End: at + r}), 0},
		{"recovery over R", report([]sim.Time{at}, nil, metrics.Interval{Start: at, End: at + r + period}), 1},
		{"an epoch's larger R admits the recovery", report([]sim.Time{at},
			[]EpochRow{{Num: 1, ActivatedAt: 2 * period, R: 2 * r}},
			metrics.Interval{Start: at, End: at + r + period}), 0},
		{"a rejected epoch's R does not", report([]sim.Time{at},
			[]EpochRow{{Num: 1, R: 2 * r, Err: "rejected"}},
			metrics.Interval{Start: at, End: at + r + period}), 1},
	}
	for _, tc := range cases {
		if got := tc.rep.Violations(); len(got) != tc.want {
			t.Errorf("%s: violations %q, want %d", tc.name, got, tc.want)
		}
	}
}
