package core

import (
	"testing"

	"btr/internal/flow"
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
