// Package faultrate drives the high-fault-rate regime: instead of a
// fixed set of at most f compromised nodes, faults *arrive* continuously
// at rate λ (Pippenger's framing for cellular automata at high fault
// rates) and heal again, so the instantaneous active-fault count wanders
// above and below the plan capacity f.
//
// The package has two parts. Schedule draws a deterministic
// Poisson-style arrival process (seeded; exponential inter-arrivals)
// over a victim pool, pairing every fault with its heal delay; Script
// turns the draws into an adversary.Script, which installs against a
// simulated deployment (core.System built with Config.ForgiveAfter, so
// convictions expire and the fault set can shrink again). Classify then
// judges every bad sink-period of the run's report:
//
//   - tolerated — within the recovery bound of a fault that arrived
//     while the system was within budget (≤ f active episodes): the
//     classic BTR guarantee held.
//   - detected — inside a window in which some node had flooded a
//     signed over-budget verdict (Report.Degraded): the guarantee was
//     suspended but *flagged*; Building on Quicksand's
//     detect-and-apologize, never a silent wrong answer.
//   - untolerated — neither: a silent miss. The C8 campaign gates this
//     class at zero.
package faultrate

import (
	"math"

	"btr/internal/adversary"
	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/metrics"
	"btr/internal/network"
	"btr/internal/sim"
)

// Catalog lists the behavior names the C8 arrival process draws from:
// the convictable classic entries of adversary.Catalog. Crash heals by
// restart, the Byzantine behaviors heal by clearing the behavior hook.
func Catalog() []string {
	return adversary.Names(func(b adversary.Behavior) bool { return b.Draw == adversary.Classic })
}

// ExtendedCatalog lists the behaviors the C10 multifault sweep draws:
// corrupt-sink and skip-actuation are judged at the plant (they target a
// hosted sink replica), delay at the transport boundary (outputs are
// held back, not falsified). They are kept out of Catalog so the C8
// schedule stays byte-identical.
func ExtendedCatalog() []string {
	return adversary.Names(func(b adversary.Behavior) bool { return b.Draw == adversary.Extended })
}

// Params configures one arrival schedule.
type Params struct {
	Lambda  float64  // mean fault arrivals per second
	Heal    sim.Time // how long an injected fault stays active
	Forgive sim.Time // the deployment's Config.ForgiveAfter (parole clock)
	Period  sim.Time // the workload period
	Start   sim.Time // earliest arrival instant (let the system boot first)
	Horizon sim.Time // absolute end of the run
	F       int      // the plan capacity (for ActiveAtArrival accounting)
	Seed    uint64

	// Behaviors is the list the arrival process draws from; empty means
	// Catalog() (the C8 default, byte-identical to the pre-C10 schedule).
	Behaviors []string
}

// Victim is a node eligible for compromise plus the logical tasks it
// hosts in the base plan. Restricting behaviors to hosted tasks keeps
// every episode a real perturbation of the dataflow — a fault against a
// task the node does not run would inflate the concurrency accounting
// without ever touching an output.
type Victim struct {
	Node     network.NodeID
	Logicals []flow.TaskID
	// Sinks are the hosted logicals that are workload sinks — the pool
	// for the plant-judged behaviors (corrupt-sink, skip-actuation). A
	// sink-bound draw against a victim with no hosted sinks is dropped.
	Sinks []flow.TaskID
}

// Arrival is one scheduled fault episode: its script entry plus the
// budget accounting the schedule does not carry.
type Arrival struct {
	adversary.Fault
	// ActiveAtArrival counts the budget-consuming episodes — this one
	// included, if it convicts — whose influence window covers At. An
	// episode's influence outlives its heal: the conviction lingers in
	// every fault set until the cluster-wide parole, Forgive (+ boundary
	// rounding) past detection, so the window is
	// [At, At + Heal + Forgive + 2 periods). Non-convicting episodes (see
	// adversary.Behavior.Convicts) saturate their victim but never enter
	// the count. Arrivals with ActiveAtArrival ≤ f are the ones the
	// classic guarantee must tolerate.
	ActiveAtArrival int
}

// linger bounds how long an episode's conviction can outlive its heal.
func linger(p Params) sim.Time { return p.Forgive + 2*p.Period }

// Schedule draws the deterministic arrival process: exponential
// inter-arrival times at rate Lambda, victims drawn uniformly from the
// currently healthy pool (a node with an open episode cannot be
// compromised again until its conviction has expired — re-infecting a
// node that is already convicted would change nothing), behaviors drawn
// uniformly from p.Behaviors (default Catalog), target tasks drawn
// uniformly from the victim's hosted tasks — or hosted sinks, for the
// plant-judged behaviors. Arrivals that find every victim saturated are
// dropped, as are sink-bound draws against sinkless victims.
func Schedule(p Params, victims []Victim) []Arrival {
	if p.Lambda <= 0 || len(victims) == 0 {
		return nil
	}
	rng := sim.NewRNG(p.Seed)
	cat := p.Behaviors
	if len(cat) == 0 {
		cat = Catalog()
	}
	end := make(map[network.NodeID]sim.Time, len(victims)) // influence end per victim
	// convictEnd tracks only the budget-consuming (convicting) episodes:
	// for the default catalog it mirrors end exactly, so the C8 schedule
	// is byte-identical to the pre-C10 accounting.
	convictEnd := make(map[network.NodeID]sim.Time, len(victims))
	var out []Arrival
	t := p.Start
	for {
		t += expInterval(rng, p.Lambda)
		if t >= p.Horizon {
			return out
		}
		var elig []Victim
		for _, v := range victims {
			if end[v.Node] <= t {
				elig = append(elig, v)
			}
		}
		if len(elig) == 0 {
			continue
		}
		v := elig[rng.Intn(len(elig))]
		b := cat[rng.Intn(len(cat))]
		beh, _ := adversary.Lookup(b)
		pool := v.Logicals
		if beh.Scope == adversary.Sink {
			pool = v.Sinks
		}
		if len(pool) == 0 {
			continue // sink-bound draw against a sinkless victim: dropped
		}
		l := pool[rng.Intn(len(pool))]
		active := 0
		if beh.Convicts {
			active = 1
		}
		for _, e := range convictEnd {
			if e > t {
				active++
			}
		}
		end[v.Node] = t + p.Heal + linger(p)
		if beh.Convicts {
			convictEnd[v.Node] = end[v.Node]
		}
		out = append(out, Arrival{
			Fault:           adversary.Fault{Behavior: b, Node: v.Node, Task: l, At: t, Heal: p.Heal},
			ActiveAtArrival: active,
		})
	}
}

// expInterval samples an exponential inter-arrival time (mean 1/lambda
// seconds) via inversion, floored at one tick.
func expInterval(rng *sim.RNG, lambda float64) sim.Time {
	u := rng.Float64() // in [0, 1)
	d := sim.Time(-math.Log(1-u) / lambda * float64(sim.Second))
	if d < 1 {
		d = 1
	}
	return d
}

// Script is the arrivals' fault script, in arrival order.
func Script(arrivals []Arrival) adversary.Script {
	s := make(adversary.Script, len(arrivals))
	for i, a := range arrivals {
		s[i] = a.Fault
	}
	return s
}

// Outcome is the per-run classification of every judged sink-period.
type Outcome struct {
	Periods     int // judged (sink, period) pairs
	OK          int // correct and on time
	Tolerated   int // bad, within the bound of a within-budget fault
	Detected    int // bad, inside a flagged over-budget window
	Untolerated int // bad, silent — the class the C8 gate holds at zero

	// Windows are the run's degraded (over-budget) spans; WorstWindow is
	// the longest one — the reconciliation bound the knee criterion
	// checks.
	Windows     []metrics.Interval
	WorstWindow sim.Time
}

// Classify judges every bad sink-period of the report. A bad deadline is
// tolerated when it falls within [At, At+R+P] of a within-budget arrival
// (R the run's provable bound, one period of deadline quantization);
// otherwise detected when it falls inside a degraded window extended by
// lead before its open and grace after its close — detection latency is
// bounded, not zero: the second fault does damage before the conviction
// that pushes the fault set over budget, and the tail of the damage
// drains after reconciliation; otherwise untolerated. Tolerated wins
// over detected so degradation windows never absorb periods the classic
// guarantee already covers.
func Classify(rep *core.Report, arrivals []Arrival, f int, lead, grace sim.Time) Outcome {
	r := rep.MaxEpochR()
	var tolerated []metrics.Interval
	for _, a := range arrivals {
		if a.ActiveAtArrival <= f {
			tolerated = append(tolerated, metrics.Interval{Start: a.At, End: a.At + r + rep.Period})
		}
	}
	tolerated = core.MergeIntervals(tolerated)
	var detected []metrics.Interval
	for _, w := range rep.Degraded {
		detected = append(detected, metrics.Interval{Start: w.Start - lead, End: w.End + grace})
	}
	detected = core.MergeIntervals(detected)

	out := Outcome{
		Periods: len(rep.PerSink) * int(rep.Horizon/rep.Period),
		Windows: append([]metrics.Interval(nil), rep.Degraded...),
	}
	for _, w := range rep.Degraded {
		if d := w.Duration(); d > out.WorstWindow {
			out.WorstWindow = d
		}
	}
	for _, tl := range rep.PerSink {
		for _, iv := range tl.FalseIntervals(rep.Horizon) {
			for t := iv.Start; t < iv.End; t += rep.Period {
				switch {
				case covered(tolerated, t):
					out.Tolerated++
				case covered(detected, t):
					out.Detected++
				default:
					out.Untolerated++
				}
			}
		}
	}
	out.OK = out.Periods - out.Tolerated - out.Detected - out.Untolerated
	return out
}

// covered reports whether t lies in one of the sorted merged intervals.
func covered(ivs []metrics.Interval, t sim.Time) bool {
	for _, iv := range ivs {
		if t < iv.Start {
			return false
		}
		if t <= iv.End {
			return true
		}
	}
	return false
}
