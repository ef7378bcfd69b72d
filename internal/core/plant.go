package core

import (
	"bytes"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/sim"
)

// taskPeriod keys per-(task, period) state.
type taskPeriod struct {
	task   flow.TaskID
	period uint64
}

// actuation is the verdict on the command a plant accepted for one
// (sink, period): whether it equalled the oracle, and when it came.
type actuation struct {
	correct bool
	at      sim.Time
}

// Plant is the correctness judge of Definition 3.1, shared by every
// deployment mode: it compares the first actuation command per (sink,
// period) with the oracle as it takes it, keeping the verdict rather than
// the bytes, and at each period's deadline records that verdict, or a
// miss, into the Report's per-sink correctness timelines.
type Plant struct {
	oracle Oracle
	first  map[taskPeriod]actuation
	rep    *Report
}

// NewPlant returns a plant for workload g over horizon periods whose
// Report carries rNeeded as the provable recovery bound.
func NewPlant(g *flow.Graph, horizon uint64, rNeeded sim.Time, oracle Oracle) *Plant {
	sinks := g.Sinks()
	rep := &Report{
		Horizon:         sim.Time(horizon) * g.Period,
		Period:          g.Period,
		PerSink:         map[flow.TaskID]*metrics.Timeline{},
		EvidenceByKind:  map[evidence.Kind]int{},
		FirstEvidenceAt: sim.Never,
		RNeeded:         rNeeded,
		degradedBy:      map[network.NodeID]bool{},
	}
	for _, sk := range sinks {
		rep.PerSink[sk] = metrics.NewTimeline(0, true)
	}
	return &Plant{oracle: oracle, first: make(map[taskPeriod]actuation, int(horizon)*len(sinks)), rep: rep}
}

// Actuate offers a command issued (or received) at time at and reports
// whether the plant took it: only the first command per (sink, period)
// counts, though every offer counts in Report.Actuations. A nil value
// stands for a command the plant could not read; it still takes the
// period and is judged wrong. The value is read only during the call.
func (p *Plant) Actuate(sink flow.TaskID, period uint64, value []byte, at sim.Time) bool {
	p.rep.Actuations++
	k := taskPeriod{sink, period}
	if _, taken := p.first[k]; taken {
		return false
	}
	correct := value != nil && bytes.Equal(value, p.oracle(sink, period))
	p.first[k] = actuation{correct: correct, at: at}
	return true
}

// Judge rules on one (sink, period) at its deadline: the period is missed
// when no command was taken or the taken one arrived after latest, wrong
// when it differed from the oracle, and correct otherwise.
func (p *Plant) Judge(sink flow.TaskID, period uint64, deadline, latest sim.Time) {
	a, present := p.first[taskPeriod{sink, period}]
	present = present && a.at <= latest
	ok := present && a.correct
	if !present {
		p.rep.MissedPeriods++
	} else if !ok {
		p.rep.WrongValues++
	}
	p.rep.PerSink[sink].Set(deadline, ok)
}

// Report returns the report the plant fills.
func (p *Plant) Report() *Report { return p.rep }
