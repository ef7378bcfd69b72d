package live

// Saturation probing: how many evidence-channel events per second can a
// live deployment absorb before it stops meeting its deadlines, and does
// it still recover within the provable bound R when a fault lands while
// the transport is loaded to ~80% of that measured saturation?
//
// The probe is deliberately adversarial — the load generator is the §4.3
// bogus-evidence flooder, whose junk is unverifiable and convicts the
// flooder almost immediately. The flood keeps running after conviction,
// so the transport's class-aware shedding and the per-neighbor evidence
// budget (not the conviction machinery) are what carry the deployment:
// the sustained rate is a transport/crypto capacity number, not a
// detector quality number. Every quantity here is wall-clock and
// machine-bound; the invariants (a positive sustained rate, recovery
// within R at ≥80% of it) are what the bench comparator gates.

import (
	"fmt"
	"math"

	"btr/internal/adversary"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// SaturationConfig describes one saturation probe family: a deployment
// shape plus an ascending ladder of per-period flood intensities.
type SaturationConfig struct {
	Seed    uint64
	Topo    string // BuildTopology family
	Nodes   int
	F       int // must be >= 2: the flooder self-convicts, spending one fault budget slot
	Period  sim.Time
	Margin  sim.Time
	Horizon uint64
	// Ladder is the ascending list of bogus envelopes injected per period
	// (each sprayed to every flooder neighbor, so the offered message rate
	// is count × degree / period).
	Ladder []int
}

// SaturationPoint is one probed ladder rung.
type SaturationPoint struct {
	PerPeriod    int     // bogus envelopes per period (per neighbor)
	OfferedEPS   float64 // offered flood messages per second (count × degree / period)
	DeliveredEPS float64 // total transport deliveries per second, all classes
	Missed       int     // sink deadlines missed (the collapse signal)
	Wrong        int
	Dropped      uint64 // transport drops, all classes
	Shed         uint64 // subset of Dropped: backpressure sheds
	// Sustained: the deployment met every deadline AND the transport
	// absorbed the offered rate without material backpressure shedding
	// (sheds ≤ 1% of deliveries). Past saturation the class-aware
	// shedding keeps deadlines clean by design — foreground is shed
	// last — so deadline misses alone cannot locate the knee; the
	// delivered-rate plateau (mass shedding) is the collapse signal.
	Sustained bool
}

// SaturationResult is the measured ladder plus the knee.
type SaturationResult struct {
	Points []SaturationPoint
	// SustainablePerPeriod is the largest rung that stayed clean (0 when
	// even the smallest rung collapsed); SustainableEPS is its offered
	// message rate.
	SustainablePerPeriod int
	SustainableEPS       float64
}

// LoadedRecovery is one recovery-under-load measurement: a catalog fault
// against a deployment whose evidence channel carries a sustained bogus
// flood at the given rate.
type LoadedRecovery struct {
	PerPeriod int
	LoadEPS   float64
	Recovery  sim.Time // measured wall-clock recovery
	Bound     sim.Time // provable R
	WithinR   bool
	Missed    int
	Wrong     int
	Delivered uint64
	Dropped   uint64
	Shed      uint64
}

// saturationDeployment builds one live deployment of the probe shape.
func saturationDeployment(cfg SaturationConfig) (*Deployment, error) {
	topo, err := BuildTopology(cfg.Topo, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	opts := plan.DefaultOptions(cfg.F, 100*cfg.Period)
	opts.WatchdogMargin = cfg.Margin
	return New(Config{
		Seed:     cfg.Seed,
		Workload: DefaultWorkload(cfg.Period),
		Topology: topo,
		PlanOpts: opts,
		Horizon:  cfg.Horizon,
	})
}

// floodNode picks the flooder: the lowest node ID that is not the
// externally visible victim, so a recovery run can fault the victim
// while the flood keeps running from a different (self-convicting) node.
func floodNode(d *Deployment) network.NodeID {
	victim := FirstSinkNode(d)
	for n := 0; n < d.Cfg.Topology.N; n++ {
		if network.NodeID(n) != victim {
			return network.NodeID(n)
		}
	}
	return victim
}

// offeredEPS converts a per-period spray count into offered messages per
// second across the flooder's links.
func offeredEPS(topo *network.Topology, flooder network.NodeID, perPeriod int, period sim.Time) float64 {
	degree := len(topo.Neighbors(flooder))
	return float64(perPeriod*degree) / (float64(period) / float64(sim.Second))
}

// MeasureSaturation walks the ladder: one full live deployment per rung,
// a sustained bogus flood from period 1 onward, sink deadlines judged as
// in every other live run. A rung is sustained when the run stays
// completely clean (no missed, no wrong periods). Rungs keep running
// past the first collapse so the ladder shows the shape of the fall, not
// just the knee.
func MeasureSaturation(cfg SaturationConfig) (*SaturationResult, error) {
	if len(cfg.Ladder) == 0 {
		return nil, fmt.Errorf("live: saturation ladder is empty")
	}
	res := &SaturationResult{}
	for _, perPeriod := range cfg.Ladder {
		perPeriod := perPeriod
		d, err := saturationDeployment(cfg)
		if err != nil {
			return nil, err
		}
		flooder := floodNode(d)
		adversary.FloodBogus(flooder, perPeriod, cfg.Period).Install(d)
		// The flood is load, not the fault under test: drop the injection
		// record so recovery attribution stays about catalog faults.
		d.report.FaultTimes = nil
		rep := d.Run()
		wallSecs := float64(rep.Horizon) / float64(sim.Second)
		delivered := totalDelivered(rep.NetStats)
		shed := rep.NetStats.TotalShed()
		pt := SaturationPoint{
			PerPeriod:    perPeriod,
			OfferedEPS:   offeredEPS(d.Cfg.Topology, flooder, perPeriod, cfg.Period),
			DeliveredEPS: float64(delivered) / wallSecs,
			Missed:       rep.MissedPeriods,
			Wrong:        rep.WrongValues,
			Dropped:      totalDropped(rep.NetStats),
			Shed:         shed,
			Sustained:    rep.MissedPeriods == 0 && rep.WrongValues == 0 && shed*100 <= delivered,
		}
		res.Points = append(res.Points, pt)
	}
	// The knee is the last sustained rung before the first collapse
	// (C8Knee semantics): a rung above a collapsed one does not extend
	// the sustainable rate even if it happened to stay clean.
	for _, pt := range res.Points {
		if !pt.Sustained {
			break
		}
		res.SustainablePerPeriod = pt.PerPeriod
		res.SustainableEPS = pt.OfferedEPS
	}
	return res, nil
}

// MeasureRecoveryUnderLoad injects a corrupt-all fault at the victim
// while the bogus flood runs at the given per-period rate (intended:
// ceil(0.8 × the measured sustainable rate) — LoadFractionFor computes
// the count). The flood starts at period 1, the fault lands at period 4,
// and the measured recovery is judged against the strategy's provable
// bound R exactly as in the unloaded C5 soak.
func MeasureRecoveryUnderLoad(cfg SaturationConfig, perPeriod int) (*LoadedRecovery, error) {
	d, err := saturationDeployment(cfg)
	if err != nil {
		return nil, err
	}
	flooder := floodNode(d)
	victim := FirstSinkNode(d)
	adversary.FloodBogus(flooder, perPeriod, cfg.Period).Install(d)
	d.report.FaultTimes = nil // the flood is load; only the fault below is judged
	adversary.CorruptEverything(victim, 4*cfg.Period).Install(d)
	rep := d.Run()
	return &LoadedRecovery{
		PerPeriod: perPeriod,
		LoadEPS:   offeredEPS(d.Cfg.Topology, flooder, perPeriod, cfg.Period),
		Recovery:  rep.MaxRecovery(),
		Bound:     rep.RNeeded,
		WithinR:   rep.MaxRecovery() <= rep.RNeeded,
		Missed:    rep.MissedPeriods,
		Wrong:     rep.WrongValues,
		Delivered: totalDelivered(rep.NetStats),
		Dropped:   totalDropped(rep.NetStats),
		Shed:      rep.NetStats.TotalShed(),
	}, nil
}

// LoadFractionFor returns the per-period flood count closest to (but not
// below) the target fraction of the sustained rate, plus the fraction it
// actually realizes. A zero sustained rate yields (0, 0).
func LoadFractionFor(sustainedPerPeriod int, frac float64) (perPeriod int, actual float64) {
	if sustainedPerPeriod <= 0 {
		return 0, 0
	}
	perPeriod = int(math.Ceil(frac * float64(sustainedPerPeriod)))
	if perPeriod > sustainedPerPeriod {
		perPeriod = sustainedPerPeriod
	}
	return perPeriod, float64(perPeriod) / float64(sustainedPerPeriod)
}

func totalDelivered(s network.Stats) uint64 {
	var t uint64
	for _, v := range s.MsgsDelivered {
		t += v
	}
	return t
}

func totalDropped(s network.Stats) uint64 {
	var t uint64
	for _, v := range s.MsgsDropped {
		t += v
	}
	return t
}
