package main

import (
	"bytes"
	"fmt"

	"btr/internal/adversary"
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/live"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/runtime"
	"btr/internal/sim"
)

// The live shape is the one C5 and C9 run (internal/exp): full mesh of
// 8, f = 2, the 3-task chain, period 150 ms, watchdog margin 50 ms.
// There is no bogus-evidence flood. Under the issue's
// live.MeasureRecoveryUnderLoad at 512 envelopes a period, 6 runs of 40
// missed R (recoveries of 2.1 to 3.75 s against 603 ms) and 3 more
// reported no recovery at all; at 128 a period 3 of 40 missed R, with
// period and margin doubled 4 of 24 (`btrcampaign -quick -family
// saturation -seed N` fails its trial for about one N in twenty). A
// workload may not contain an operation that fails, so the flood stays
// out until the program holds R under it.
const (
	liveNodes   = 8
	liveF       = 2
	livePeriod  = 150 * sim.Millisecond
	liveMargin  = 50 * sim.Millisecond
	liveFaultAt = 4 // period at which the victim turns corrupt
	liveHorizon = 20
	// floodPerPeriod is the flood the live probe measures and no workload
	// runs: about 24 k messages/s offered, two thirds of the committed knee.
	floodPerPeriod = 512
)

func liveConfig(seed uint64, horizon uint64) (live.Config, error) {
	topo, err := live.BuildTopology("full-mesh", liveNodes)
	if err != nil {
		return live.Config{}, err
	}
	opts := plan.DefaultOptions(liveF, 100*livePeriod)
	opts.WatchdogMargin = liveMargin
	return live.Config{
		Seed:     seed,
		Workload: live.DefaultWorkload(livePeriod),
		Topology: topo,
		PlanOpts: opts,
		Horizon:  horizon,
	}, nil
}

// liveRun is one faulted deployment and what its run showed from
// outside, through the hooks live.Config offers.
type liveRun struct {
	d         *live.Deployment
	rep       *live.Report
	detectMs  float64   // wall clock: fault applied → first evidence accepted anywhere
	switchMs  float64   // fault applied → last mode switch
	actLateMs []float64 // first command of each period: how long after the period began
	evidence  []evidence.Evidence

	horizon                              uint64
	faultWall, firstEvidence, lastSwitch sim.Time // wall clock, µs since the start; -1: not yet
	firstOK, seen                        []bool   // per period: its first command was correct, was seen
}

// newLive builds one deployment with the harness's judge hooked in and
// corrupt-all scheduled at the first sink's host for period 4: all that
// happens before Run, which is the workload's set-up.
func newLive(h *harness, seed uint64, horizon uint64, parent int) (*liveRun, error) {
	cfg, err := liveConfig(seed, horizon)
	if err != nil {
		return nil, err
	}
	oracle := core.HashOracle(cfg.Workload, evidence.SourceValue)
	cfg.Oracle = live.Oracle(oracle)
	r := &liveRun{
		actLateMs: make([]float64, 0, horizon),
		evidence:  make([]evidence.Evidence, 0, 64),
		horizon:   horizon,
		faultWall: -1, firstEvidence: -1, lastSwitch: -1,
		firstOK: make([]bool, horizon),
		seen:    make([]bool, horizon),
	}
	// The hooks run on the scheduler's executor goroutine, one at a time.
	cfg.OnActuation = func(_ network.NodeID, sink flow.TaskID, period uint64, value []byte, _ sim.Time) {
		if period >= horizon || r.seen[period] {
			return // the plant acts on the first command of a period only
		}
		wall := r.d.Sched.WallElapsed()
		r.seen[period] = true
		r.firstOK[period] = bytes.Equal(value, oracle(sink, period))
		r.actLateMs = append(r.actLateMs, float64(wall-sim.Time(period)*livePeriod)/1e3)
	}
	cfg.OnEvidence = func(_ network.NodeID, ev evidence.Evidence, _ sim.Time) {
		if r.firstEvidence < 0 {
			r.firstEvidence = r.d.Sched.WallElapsed()
		}
		if len(r.evidence) < cap(r.evidence) {
			r.evidence = append(r.evidence, ev)
		}
	}
	cfg.OnSwitch = func(network.NodeID, string, string, sim.Time) {
		r.lastSwitch = r.d.Sched.WallElapsed()
	}

	sp := h.rec.begin("live.New", parent, 0)
	r.d, err = live.New(cfg)
	h.rec.end(sp)
	if err != nil {
		return nil, err
	}
	fault := adversary.CorruptEverything(live.FirstSinkNode(r.d), liveFaultAt*livePeriod)
	r.d.InjectAt(fault.At, func(rt *runtime.System) {
		r.faultWall = r.d.Sched.WallElapsed()
		fault.Apply(rt)
	})
	return r, nil
}

// run runs the deployment on the wall clock and judges what the plant
// saw.
func (r *liveRun) run(h *harness, parent int) error {
	sp := h.rec.begin("Deployment.Run", parent, 0)
	r.rep = r.d.Run()
	h.rec.end(sp)

	lastBad := -1
	for p := liveFaultAt; p < int(r.horizon); p++ {
		if !r.seen[p] || !r.firstOK[p] {
			lastBad = p
		}
	}
	switch {
	case r.faultWall < 0:
		return fmt.Errorf("the fault was never applied")
	case lastBad < 0:
		return fmt.Errorf("the corrupt-all fault never reached the plant")
	case lastBad+1 >= int(r.horizon):
		return fmt.Errorf("outputs were still wrong at the horizon")
	case r.firstEvidence < r.faultWall:
		return fmt.Errorf("evidence was raised before the fault, %d µs into the run", r.firstEvidence)
	}
	r.detectMs = float64(r.firstEvidence-r.faultWall) / 1e3
	r.switchMs = float64(r.lastSwitch-r.faultWall) / 1e3
	return nil
}

// liveRecovery is the wall-paced workload: a live deployment hit by
// corrupt-all at the first sink's host must put correct outputs back
// within R. A segment is one deployment run of 20 periods; an op is one
// transport delivery, so throughput is fixed by the schedule; the
// recovery is the report's, fault → outputs correct again in logical
// period stamps.
func liveRecovery(h *harness) {
	horizon := uint64(liveHorizon)
	if h.short {
		horizon = 8
	}
	segLen := float64(horizon+1) * float64(livePeriod) / float64(sim.Second)
	n := max(int(h.seconds/segLen), 1)
	var recovery, detect, switches, overR, lates, msgsPerPeriod []float64
	var evClass, sent, shed, missed, wrong float64
	for i := 0; i < n; i++ {
		// Set-up is all that precedes Run, and Close.
		for j := 0; j < 5 && h.moreSetup(); j++ {
			h.timeSetup(func(sp int) {
				r, err := newLive(h, splitmix(h.seed, n+len(h.setups)), horizon, sp)
				if err != nil {
					h.failf("live_recovery: set-up: %v", err)
					return
				}
				r.d.Close()
			})
		}
		segSpan := h.rec.begin("segment", -1, i)
		run, err := newLive(h, splitmix(h.seed, i), horizon, segSpan)
		if err != nil {
			h.rec.end(segSpan)
			h.failf("live_recovery: segment %d: %v", i, err)
			continue
		}
		c0 := h.begin()
		err = run.run(h, segSpan)
		seg := h.end(c0)
		h.rec.end(segSpan)
		if err != nil {
			h.failf("live_recovery: segment %d: %v", i, err)
			seg.failed = 1
			continue
		}
		rep := run.rep
		for c := range rep.NetStats.MsgsDelivered {
			seg.ops += int64(rep.NetStats.MsgsDelivered[c])
			seg.failed += int64(rep.NetStats.MsgsDropped[c])
			sent += float64(rep.NetStats.MsgsSent[c])
		}
		if rep.MaxRecovery() == 0 || !rep.WithinBound() {
			h.failf("live_recovery: segment %d: the report's recovery is %v against R = %v", i, rep.MaxRecovery(), rep.RNeeded)
		}
		recovery = append(recovery, rep.MaxRecovery().Millis())
		detect = append(detect, run.detectMs)
		switches = append(switches, run.switchMs)
		overR = append(overR, float64(rep.MaxRecovery())/float64(rep.RNeeded))
		lates = append(lates, run.actLateMs...)
		msgsPerPeriod = append(msgsPerPeriod, float64(seg.ops)/float64(horizon))
		evClass += float64(rep.NetStats.MsgsDelivered[network.ClassEvidence])
		shed += float64(rep.NetStats.TotalShed())
		missed += float64(rep.MissedPeriods)
		wrong += float64(rep.WrongValues)
	}

	t := h.totals()
	h.layer["recovery_ms"] = median(recovery)
	h.layer["live.detect_ms"] = median(detect)
	h.layer["live.switch_ms"] = median(switches)
	h.layer["live.recovery_over_r"] = median(overR)
	h.layer["live.missed_periods"] = missed / float64(n)
	h.layer["live.wrong_periods"] = wrong / float64(n)
	h.layer["live.msgs_per_period"] = median(msgsPerPeriod)
	h.layer["live.evidence_class_frac"] = evClass / float64(max(t.ops, 1))
	h.layer["live.shed_frac"] = shed / max(sent, 1)
	h.layer["live.act_late_p50_ms"] = median(lates)
	h.layer["live.act_late_p99_ms"] = quantile(lates, 0.99)
	h.layer["live.util_cores"] = t.cpu / max(t.wall, 1e-9)
	h.layer["live.alloc_bytes_per_op"] = float64(t.bytes) / float64(max(t.ops, 1))
}
