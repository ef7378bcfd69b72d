package exp

// C9: the saturation regime. C5 and C7 measure recovery on a lightly
// loaded wall-clock deployment; C9 asks what the live deployment can
// actually absorb. Each trial walks an ascending ladder of sustained
// bogus-evidence flood rates (the §4.3 DoS generator reused as a load
// generator) against a full live deployment, locating the knee where the
// evidence channel stops keeping up — more than one period's flood still
// in flight when the run ends — and then injects a catalog fault while
// the flood runs at ≥80% of that measured sustainable rate. What sets
// the knee is the evidence class's reserved share of each link: degree ×
// ClassCapacity(bw, share, ClassEvidence) ÷ frame bytes, ≈ 7 × 4 MB/s ÷
// 305 B ≈ 92k ev/s on the full mesh of 8. The claims under test: the knee
// exists (a positive sustainable events/sec with zero deadline misses
// below it), past it the flood queues on its own share instead of
// starving foreground traffic, and measured recovery still lands within
// the provable bound R at 80% load. Like C5 and C7 the numbers are
// wall-clock and machine-bound, so the family is exempt from the
// byte-identity determinism pin (filters skip Family == "saturation");
// the invariants are what `make bench-check` gates through the
// saturation section of BENCH_campaign.json.

import (
	"fmt"

	"btr/internal/campaign"
	"btr/internal/live"
	"btr/internal/metrics"
	"btr/internal/sim"
)

// c9Period/c9Margin match the C5 live-soak budget: the jitter allowance
// must cover OS timer overshoot on shared hosts, and under flood the
// executor carries tens of thousands of deliveries per second besides.
const (
	c9Period = 150 * sim.Millisecond
	c9Margin = 50 * sim.Millisecond
)

// c9LoadFraction is the recovery-under-load operating point: the flood
// runs at (at least) this fraction of the measured sustainable rate
// while the catalog fault lands.
const c9LoadFraction = 0.8

type c9Case struct {
	kind  string
	nodes int
	f     int
}

// c9Cases: f must be ≥ 2 — the bogus flooder self-convicts within a
// period or two, permanently spending one slot of the fault budget, and
// the recovery fault then lands as the second concurrent fault.
func c9Cases(p campaign.Params) []c9Case {
	return []c9Case{{"full-mesh", 8, 2}}
}

// c9Ladder is the swept flood-intensity grid (bogus envelopes per
// period, each sprayed to every flooder neighbor), ascending. The top
// rung sits far past the evidence channel's modeled bandwidth so the
// ladder always exhibits the collapse, not just the climb.
func c9Ladder(p campaign.Params) []int {
	if p.Quick {
		return []int{64, 768, 3072}
	}
	return []int{8, 64, 256, 768, 3072}
}

// C9Point is one ladder rung.
type C9Point struct {
	PerPeriod    int
	OfferedEPS   float64
	DeliveredEPS float64
	Missed       int
	Wrong        int
	InFlight     uint64
	Sustained    bool
}

// C9Row is one topology's full saturation probe: the ladder, the located
// knee, and the recovery-under-load measurement at ≥80% of it.
type C9Row struct {
	Topology string
	Nodes    int
	F        int
	Points   []C9Point

	SustainableEPS float64

	LoadEPS      float64
	LoadFraction float64 // realized flood fraction of the sustainable rate
	Recovery     sim.Time
	Bound        sim.Time
	WithinR      bool
	Missed       int
	Wrong        int
	Delivered    uint64
	Dropped      uint64
	Shed         uint64 // sheds during the loaded recovery run
}

// runC9Case walks the ladder and then measures recovery under load. Both
// halves live in one trial because the operating point of the second is
// derived from the knee the first one measures.
func runC9Case(c c9Case, ladder []int, seed uint64) (C9Row, error) {
	cfg := live.SaturationConfig{
		Seed: seed, Topo: c.kind, Nodes: c.nodes, F: c.f,
		Period: c9Period, Margin: c9Margin, Horizon: 12,
		Ladder: ladder,
	}
	sat, err := live.MeasureSaturation(cfg)
	if err != nil {
		return C9Row{}, err
	}
	row := C9Row{Topology: c.kind, Nodes: c.nodes, F: c.f, SustainableEPS: sat.SustainableEPS}
	for _, pt := range sat.Points {
		row.Points = append(row.Points, C9Point{
			PerPeriod: pt.PerPeriod, OfferedEPS: pt.OfferedEPS, DeliveredEPS: pt.DeliveredEPS,
			Missed: pt.Missed, Wrong: pt.Wrong, InFlight: pt.InFlight, Sustained: pt.Sustained,
		})
	}
	load, frac := live.LoadFractionFor(sat.SustainablePerPeriod, c9LoadFraction)
	if load == 0 {
		return row, fmt.Errorf("saturation %s: even the smallest swept flood rate collapsed the deployment", c.kind)
	}
	rec, err := live.MeasureRecoveryUnderLoad(cfg, load)
	if err != nil {
		return C9Row{}, err
	}
	row.LoadEPS = rec.LoadEPS
	row.LoadFraction = frac
	row.Recovery, row.Bound, row.WithinR = rec.Recovery, rec.Bound, rec.WithinR
	row.Missed, row.Wrong = rec.Missed, rec.Wrong
	row.Delivered, row.Dropped, row.Shed = rec.Delivered, rec.Dropped, rec.Shed
	return row, nil
}

// c9Scenario returns the saturation campaign family.
func c9Scenario() campaign.Scenario {
	return campaign.Scenario{
		ID:     "C9",
		Family: "saturation",
		Claim:  "a live deployment has a measurable sustainable event rate, set by the evidence class's reserved link share; above it the flood backs up on that share instead of costing deadlines, and at 80% of it a fault still recovers within R",
		Trials: func(p campaign.Params) []campaign.TrialSpec {
			var specs []campaign.TrialSpec
			for _, c := range c9Cases(p) {
				c := c
				specs = append(specs, campaign.TrialSpec{
					Name: fmt.Sprintf("saturation/%s/n=%d", c.kind, c.nodes),
					Run: func(t *campaign.T) (any, error) {
						liveGate.Lock()
						defer liveGate.Unlock()
						return runC9Case(c, c9Ladder(p), t.TrialSeed())
					},
				})
			}
			return specs
		},
		Aggregate: func(p campaign.Params, trials []campaign.TrialResult) []*metrics.Table {
			ladder := metrics.NewTable(fmt.Sprintf("C9: saturation ladder (sustained bogus flood, period %v)", c9Period),
				"topology", "flood/period", "offered ev/s", "delivered ev/s", "missed", "in flight", "sustained")
			rec := metrics.NewTable("C9: recovery under load (corrupt-all at ≥80% of measured saturation)",
				"topology", "nodes", "f", "sustainable ev/s", "load ev/s", "load frac", "recovery", "bound R", "within R", "shed")
			for i, c := range c9Cases(p) {
				row, ok := campaign.Value[C9Row](trials[i])
				if !ok {
					ladder.AddRow(failedRow(c.kind), "-", "-", "-", "-", "-", "-")
					rec.AddRow(failedRow(c.kind), c.nodes, c.f, "-", "-", "-", "-", "-", "-", "-")
					continue
				}
				for _, pt := range row.Points {
					ladder.AddRow(row.Topology, pt.PerPeriod, fmt.Sprintf("%.0f", pt.OfferedEPS),
						fmt.Sprintf("%.0f", pt.DeliveredEPS), pt.Missed, pt.InFlight, boolMark(pt.Sustained))
				}
				rec.AddRow(row.Topology, row.Nodes, row.F,
					fmt.Sprintf("%.0f", row.SustainableEPS), fmt.Sprintf("%.0f", row.LoadEPS),
					fmt.Sprintf("%.2f", row.LoadFraction), row.Recovery, row.Bound,
					boolMark(row.WithinR), row.Shed)
			}
			if note := campaign.FailNote(trials); note != "" {
				ladder.Note("%s", note)
			}
			ladder.Note("'sustained' = zero deadline misses and at most one period's flood (flood/period × degree) in flight at the end; the knee is the last sustained rung — above it the flood backs up on the evidence share (≈ degree × 4 MB/s ÷ 305 B ≈ 92k ev/s here) while foreground keeps its own")
			rec.Note("wall-clock measurements on a live executor under sustained flood — the invariant is the 'within R' column at load fraction ≥%.1f", c9LoadFraction)
			return []*metrics.Table{ladder, rec}
		},
	}
}
