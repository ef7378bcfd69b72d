package exp

// C8: the high-fault-rate regime. Every other family keeps at most f
// faults concurrently active; C8 drives a continuous Poisson-style
// arrival process (internal/faultrate) at rate λ against deployments
// whose convictions expire on a parole clock (core.Config.ForgiveAfter),
// so the active-fault count wanders above and below f. The claim under
// test is Building on Quicksand's detect-and-apologize stance: beyond
// the budget the system may degrade but must *flag* it (signed
// over-budget verdicts on the evidence share, closed by reconciled
// verdicts) and reconcile within a bounded window once back at ≤ f —
// silent misses (untolerated periods) must be zero at and below the
// graceful-degradation knee. Simulated time only, so C8 tables are
// byte-deterministic and ride the same cross-worker byte-identity pin as
// C1–C4/C6.

import (
	"fmt"

	"btr/internal/campaign"
	"btr/internal/core"
	"btr/internal/faultrate"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// c8Case is one swept deployment family.
type c8Case struct {
	kind string
	f    int
	mk   func() *network.Topology
}

func c8Cases(p campaign.Params) []c8Case {
	const bw, prop = 20_000_000, 50 * sim.Microsecond
	cases := []c8Case{
		{"full-mesh", 1, func() *network.Topology { return network.FullMesh(6, bw, prop) }},
		{"ring", 1, func() *network.Topology { return network.Ring(7, bw, prop) }},
		{"grid-3x3", 1, func() *network.Topology { return network.Grid(3, 3, bw, prop) }},
	}
	if p.Quick {
		cases = cases[:1]
	}
	return cases
}

// c8Lambdas is the swept arrival-rate grid (per second), ascending — the
// knee search walks it in order.
func c8Lambdas(p campaign.Params) []float64 {
	if p.Quick {
		return []float64{1, 8}
	}
	return []float64{0.5, 1, 2, 4, 8}
}

// C8Row is one (topology, λ) trial's classification (exported for the
// bundle emitter, which records these as the BENCH_campaign.json
// faultrate section).
type C8Row struct {
	Topology    string
	Lambda      float64 // arrivals per second
	Arrivals    int     // episodes actually injected
	PeakActive  int     // max concurrently-open episodes
	Periods     int     // judged sink-periods
	Tolerated   int
	Detected    int
	Untolerated int
	Windows     int      // degraded (over-budget) windows
	WorstWindow sim.Time // longest degraded window
	Bound       sim.Time // the reconcile-window bound
	Reconciled  bool     // WorstWindow <= Bound
}

// c8Timing derives the per-run timing constants from the workload
// period: faults stay active for 8 periods, convictions expire 8 periods
// after detection, and a degraded window must close within
// heal + forgive + 4 periods (one episode's full lifetime plus boundary
// rounding and the flood bound).
func c8Timing(period sim.Time) (heal, forgive, bound sim.Time) {
	heal = 8 * period
	forgive = 8 * period
	bound = heal + forgive + 4*period
	return
}

// c8Victims lists every task-hosting node of the base plan with its
// hosted logical tasks, in deterministic order.
func c8Victims(s *core.System) []faultrate.Victim {
	base := s.Strategy.Plans[""]
	byNode := map[network.NodeID][]flow.TaskID{}
	var hosts []network.NodeID
	for _, id := range base.Aug.TaskIDs() { // deterministic order
		n := base.Assign[id]
		logical, _ := plan.SplitReplica(id)
		if _, ok := byNode[n]; !ok {
			hosts = append(hosts, n)
		}
		dup := false
		for _, l := range byNode[n] {
			if l == logical {
				dup = true
			}
		}
		if !dup {
			byNode[n] = append(byNode[n], logical)
		}
	}
	out := make([]faultrate.Victim, 0, len(hosts))
	for _, h := range hosts {
		out = append(out, faultrate.Victim{Node: h, Logicals: byNode[h]})
	}
	return out
}

// runC8Case executes one (topology, λ) deployment: schedule the arrival
// process, run it against a parole-enabled deployment, classify every
// bad sink-period. extended draws the extended catalog behaviors (the
// C10 sweep) instead of the classic ones.
func runC8Case(memo *plan.Memo, c c8Case, lambda float64, seed uint64, quick, extended bool) (C8Row, error) {
	const period = 25 * sim.Millisecond
	horizon := uint64(160)
	if quick {
		horizon = 80
	}
	heal, forgive, bound := c8Timing(period)
	s, err := core.NewSystem(core.Config{
		Seed:         seed,
		Workload:     flow.Chain(3, period, sim.Millisecond, 64, flow.CritA),
		Topology:     c.mk(),
		PlanOpts:     plan.DefaultOptions(c.f, 500*sim.Millisecond),
		Horizon:      horizon,
		ForgiveAfter: forgive,
		Strategies:   memo,
	})
	if err != nil {
		return C8Row{}, err
	}
	ap := faultrate.Params{
		Lambda: lambda, Heal: heal, Forgive: forgive, Period: period,
		Start: 4 * period, Horizon: sim.Time(horizon) * period,
		F: c.f, Seed: seed,
	}
	victims := c8Victims(s)
	if extended {
		// Arrivals stop one reconcile bound before the horizon: the
		// extended behaviors convict on watchdog pace (a delay's damage
		// IS lateness, so conviction trails injection by up to hold +
		// margin), and an episode whose detect-and-reconcile lifecycle
		// is cut off by the end of the run would be judged on damage
		// whose flagging never had time to arrive.
		ap.Horizon -= bound
		ap.Behaviors = faultrate.ExtendedCatalog()
		addSinks(victims, s.Cfg.Workload)
	}
	arrivals := faultrate.Schedule(ap, victims)
	if err := faultrate.Script(arrivals).Install(s, period); err != nil {
		return C8Row{}, err
	}
	rep := s.Run()
	// Detection latency is bounded, not zero: a fault does damage before
	// the conviction that pushes the fault set over budget, and the tail
	// of the damage drains after reconciliation — extend the flagged
	// windows by the provable bound (plus deadline quantization) on both
	// sides.
	slack := rep.RNeeded + period
	out := faultrate.Classify(rep, arrivals, c.f, slack, slack)
	row := C8Row{
		Topology: c.kind, Lambda: lambda, Arrivals: len(arrivals),
		Periods: out.Periods, Tolerated: out.Tolerated,
		Detected: out.Detected, Untolerated: out.Untolerated,
		Windows: len(out.Windows), WorstWindow: out.WorstWindow,
		Bound: bound, Reconciled: out.WorstWindow <= bound,
	}
	for _, a := range arrivals {
		if a.ActiveAtArrival > row.PeakActive {
			row.PeakActive = a.ActiveAtArrival
		}
	}
	return row, nil
}

// C8Knee returns the graceful-degradation knee for one topology's rows
// (ascending λ): the largest λ such that every row at or below it has
// zero untolerated periods and every degraded window reconciled within
// the bound. 0 means even the smallest swept rate broke the criterion.
func C8Knee(rows []C8Row) float64 {
	knee := 0.0
	for _, r := range rows {
		if r.Untolerated > 0 || !r.Reconciled {
			break
		}
		knee = r.Lambda
	}
	return knee
}

// c8Scenario returns the high-fault-rate scenario.
func c8Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "C8",
		Family: "faultrate",
		Claim:  "continuous fault arrivals at rate λ never produce a silent miss at or below the knee: every bad period is tolerated (within R) or flagged over-budget and reconciled within a bounded window",
		Trials: func(p campaign.Params) []campaign.TrialSpec { return sweepSpecs(p, "rate", false) },
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			return []*metrics.Table{sweepTable(p, trials, "C8: high-fault-rate sweep (Poisson arrivals at rate λ, parole-clock convictions)", true,
				"'tolerated' = bad period within R of a within-budget fault; 'detected' = bad period inside a signed over-budget window (suspended but flagged, never silent); 'untolerated' = silent miss — gated at zero at and below the knee")}
		},
	}
}

// sweepSpecs builds the (topology, λ) sweep's trial specs, named
// name/<topology>/lambda=<λ>: C8's, or with extended C10's sweep half.
func sweepSpecs(p campaign.Params, name string, extended bool) []campaign.TrialSpec {
	var specs []campaign.TrialSpec
	for _, c := range c8Cases(p) {
		for _, lambda := range c8Lambdas(p) {
			c, lambda := c, lambda
			specs = append(specs, campaign.TrialSpec{
				Name: fmt.Sprintf("%s/%s/lambda=%g", name, c.kind, lambda),
				Run: func(t *campaign.T) (any, error) {
					return runC8Case(t.Strategies, c, lambda, t.TrialSeed(), p.Quick, extended)
				},
			})
		}
	}
	return specs
}

// sweepTable folds the sweep trials (aligned with sweepSpecs) into one
// row per case, then notes the failed trials (with failNote), each
// topology's knee and last.
func sweepTable(p campaign.Params, trials []campaign.TrialResult, title string, failNote bool, last string) *metrics.Table {
	t := metrics.NewTable(title,
		"topology", "λ/s", "arrivals", "peak active", "periods", "tolerated", "detected", "untolerated", "windows", "worst window", "bound", "reconciled")
	byTopo := map[string][]C8Row{}
	i := 0
	for _, c := range c8Cases(p) {
		for _, lambda := range c8Lambdas(p) {
			row, ok := campaign.Value[C8Row](trials[i])
			i++
			if !ok {
				t.AddRow(failedRow(c.kind), fmt.Sprintf("%g", lambda), "-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
				continue
			}
			byTopo[c.kind] = append(byTopo[c.kind], row)
			t.AddRow(row.Topology, fmt.Sprintf("%g", row.Lambda), row.Arrivals, row.PeakActive,
				row.Periods, row.Tolerated, row.Detected, row.Untolerated,
				row.Windows, row.WorstWindow, row.Bound, boolMark(row.Reconciled))
		}
	}
	if note := campaign.FailNote(trials); failNote && note != "" {
		t.Note("%s", note)
	}
	for _, c := range c8Cases(p) {
		t.Note("%s: knee λ = %g/s (largest swept rate with zero untolerated periods and every degraded window within the reconcile bound at and below it)",
			c.kind, C8Knee(byTopo[c.kind]))
	}
	t.Note("%s", last)
	return t
}
