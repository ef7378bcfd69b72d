package exp

import (
	"fmt"

	"btr/internal/adversary"
	"btr/internal/campaign"
	"btr/internal/core"
	"btr/internal/evidence"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/sim"
)

// --- E1: recovery bound per fault type --------------------------------------

type e1Case struct {
	name  string
	wantK evidence.Kind
	mk    func(s *core.System, at sim.Time) adversary.Attack
}

func e1Cases() []e1Case {
	return []e1Case{
		{"crash", evidence.KindPathAccusation, func(s *core.System, at sim.Time) adversary.Attack {
			return adversary.Crash(s.Strategy.Plans[""].Assign["c1#0"], at)
		}},
		{"commission (intermediate)", evidence.KindWrongOutput, func(s *core.System, at sim.Time) adversary.Attack {
			return adversary.CorruptTask(s.Strategy.Plans[""].Assign["c1#0"], "c1", at)
		}},
		{"commission (sink)", evidence.KindWrongOutput, func(s *core.System, at sim.Time) adversary.Attack {
			return adversary.CorruptTask(s.Strategy.Plans[""].FirstSinkHost("c2"), "c2", at)
		}},
		{"omission", evidence.KindPathAccusation, func(s *core.System, at sim.Time) adversary.Attack {
			return adversary.Omit(s.Strategy.Plans[""].Assign["c1#0"], "c1", at)
		}},
		{"timing (timestamp lie)", evidence.KindTiming, func(s *core.System, at sim.Time) adversary.Attack {
			return adversary.LieAboutSendTime(s.Strategy.Plans[""].Assign["c1#0"], "c1", 10*sim.Millisecond, at)
		}},
		{"equivocation (source)", evidence.KindPathAccusation, func(s *core.System, at sim.Time) adversary.Attack {
			return adversary.Equivocate(s.Strategy.Plans[""].Assign["c0#0"], "c0", at)
		}},
	}
}

type e1Row struct {
	Evidence string
	Wrong    int
	Recovery sim.Time
	Bound    sim.Time
}

// e1Scenario reproduces Definition 3.1: for a single fault of every type,
// the system's outputs are incorrect for at most R after the fault
// manifests, and correct everywhere else.
func e1Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "E1",
		Family: "paper",
		Claim:  "outputs are correct in any interval with no fault in the preceding R (Def. 3.1)",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			horizon := uint64(40)
			if p.Quick {
				horizon = 25
			}
			var specs []campaign.TrialSpec
			for i, sc := range e1Cases() {
				i, sc := i, sc
				specs = append(specs, campaign.TrialSpec{Name: sc.name, Run: func(t *campaign.T) (any, error) {
					s, err := chainSystem(t, p.Seed+uint64(i), 1, 6, horizon)
					if err != nil {
						return nil, err
					}
					at := 5 * s.Cfg.Workload.Period
					sc.mk(s, at).Install(s)
					rep := s.Run()
					return e1Row{
						Evidence: dominantEvidence(rep.EvidenceByKind, sc.wantK),
						Wrong:    rep.WrongValues,
						Recovery: rep.MaxRecovery(),
						Bound:    rep.RNeeded,
					}, nil
				}})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("E1: recovery bound per fault type (chain workload, f=1)",
				"fault", "evidence", "wrong outputs", "measured recovery", "bound R", "within R")
			cases := e1Cases()
			for i, tr := range trials {
				row, ok := campaign.Value[e1Row](tr)
				if !ok {
					t.AddRow(failedRow(cases[i].name), "-", "-", "-", "-", "-")
					continue
				}
				t.AddRow(cases[i].name, row.Evidence, row.Wrong, row.Recovery, row.Bound,
					boolMark(row.Recovery <= row.Bound))
			}
			t.Note("intermediate commission/omission recover in 0: audited input choice masks them (detection without disruption)")
			return []*metrics.Table{t}
		},
	}
}

// --- E4: staggered attacks --------------------------------------------------

type e4Row struct {
	K      int
	Total  sim.Time
	Bound  sim.Time
	Period sim.Time
}

// e4Scenario reproduces §3: an adversary controlling k <= f nodes can
// trigger a new fault every R seconds, forcing at most k·R of bad output —
// hence R := D/f.
func e4Scenario() campaign.Scenario {
	plan := func(p campaign.Params) (f int, ks []int) {
		f, ks = 3, []int{1, 2, 3}
		if p.Quick {
			f, ks = 2, []int{1, 2}
		}
		return f, ks
	}
	return campaign.Scenario{
		ID:     "E4",
		Family: "paper",
		Claim:  "k staggered faults can stretch the outage to at most k·R; set R := D/f",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			f, ks := plan(p)
			var specs []campaign.TrialSpec
			for _, k := range ks {
				k := k
				specs = append(specs, campaign.TrialSpec{Name: fmt.Sprintf("k=%d", k), Run: func(t *campaign.T) (any, error) {
					s, err := chainSystem(t, p.Seed, f, 10, uint64(30+25*k))
					if err != nil {
						return nil, err
					}
					period := s.Cfg.Workload.Period
					// One sink corruption per stage, spaced by the
					// strategy's bound so each fault lands in a recovered
					// system (the §3 worst-case adversary).
					gap := s.Strategy.RNeeded + 2*period
					victims := pickVictims(s, k)
					for i, v := range victims {
						at := 5*period + sim.Time(i)*gap
						adversary.CorruptEverything(v, at).Install(s)
					}
					rep := s.Run()
					return e4Row{K: k, Total: rep.TotalBadTime(), Bound: sim.Time(k) * rep.RNeeded, Period: period}, nil
				}})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			t := metrics.NewTable("E4: staggered attacks — total incorrect-output time vs k·R (chain, f=3, 10 nodes)",
				"k (faults)", "total bad output", "k × measured-R1", "k × bound R", "within k·R")
			_, ks := plan(p)
			// Baseline single-fault bad time for scaling comparison.
			var r1 sim.Time
			for i, tr := range trials {
				row, ok := campaign.Value[e4Row](tr)
				if !ok {
					t.AddRow(failedRow(fmt.Sprintf("k=%d", ks[i])), "-", "-", "-", "-")
					continue
				}
				if i == 0 {
					r1 = row.Total
					if r1 == 0 {
						r1 = row.Period // avoid zero scaling when fully masked
					}
				}
				scaled := "-" // k=1 baseline unavailable
				if r1 > 0 {
					scaled = (sim.Time(row.K) * r1).String()
				}
				t.AddRow(row.K, row.Total, scaled, row.Bound,
					boolMark(row.Total <= row.Bound))
			}
			t.Note("each fault corrupts every output of one fresh node, spaced R apart (the §3 worst-case adversary)")
			return []*metrics.Table{t}
		},
	}
}

// pickVictims returns k distinct nodes, preferring the first-actuating
// sink replica's node, then other replica hosts.
func pickVictims(s *core.System, k int) []network.NodeID {
	base := s.Strategy.Plans[""]
	seen := map[network.NodeID]bool{}
	var out []network.NodeID
	add := func(n network.NodeID) {
		if !seen[n] && len(out) < k {
			seen[n] = true
			out = append(out, n)
		}
	}
	add(s.Strategy.Plans[""].FirstSinkHost("c2"))
	for _, id := range base.Aug.TaskIDs() {
		add(base.Assign[id])
	}
	if len(out) < k {
		panic(fmt.Sprintf("exp: cannot pick %d victims", k))
	}
	return out
}
