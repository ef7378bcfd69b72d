package member

import (
	"fmt"
	"sync"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plan/cache"
)

// EpochPlan is everything the runtime needs to execute one epoch: the
// committed record, the active wiring, and the per-epoch strategy plus
// fault resolver (plans cover member fault patterns up to F, each plan
// additionally excluding the dormant slots).
type EpochPlan struct {
	Record   Record
	Members  []network.NodeID
	Excluded plan.FaultSet
	// Wiring is the epoch's *active* wiring: the administrative link
	// state restricted to links among members. Transports carry exactly
	// this — dormant slots get no links, traffic never routes through
	// them, and retiring a node removes its links at activation.
	Wiring   *network.Topology
	Strategy *plan.Strategy
	// Resolve is the epoch-aware runtime.PlanSource: member faults union
	// the epoch's exclusions, with the engine's bounded fallback.
	Resolve func(plan.FaultSet) *plan.Plan
}

// activeWiring restricts an administrative wiring to the links whose
// both endpoints are members (the slot count is preserved; dormant
// slots become isolated vertices).
func activeWiring(wiring *network.Topology, members []network.NodeID) *network.Topology {
	in := make(map[network.NodeID]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	var links []network.Link
	for _, l := range wiring.Links {
		if in[l.A] && in[l.B] {
			links = append(links, l)
		}
	}
	return network.NewTopology(wiring.N, links)
}

// Planner turns epoch records into EpochPlans through the incremental
// plan engine. All epochs of a deployment (and, when the cache is
// shared, all deployments of a campaign) draw from one content-
// addressed plan cache, so re-planning an epoch that differs from its
// predecessor by one slot is a delta repair, and replaying a whole
// churn sequence warm synthesizes nothing. Safe for use from scheduler
// callbacks (single goroutine); the internal lock only guards the
// engine table against concurrent deployments sharing a Planner.
type Planner struct {
	base *flow.Graph
	opts plan.Options
	c    *cache.Cache

	mu      sync.Mutex
	engines map[*network.Topology]*cache.Engine
	epochs  map[[16]byte]*EpochPlan
}

// NewPlanner builds a planner for one workload/options pair. A nil
// cache gets a private one; campaigns pass a shared cache so same-shape
// deployments reuse each other's epochs.
func NewPlanner(base *flow.Graph, opts plan.Options, c *cache.Cache) *Planner {
	if c == nil {
		c = cache.New()
	}
	return &Planner{
		base:    base,
		opts:    opts.Normalized(),
		c:       c,
		engines: map[*network.Topology]*cache.Engine{},
		epochs:  map[[16]byte]*EpochPlan{},
	}
}

// engineFor returns (building on demand) the engine for a wiring.
// Wirings are compared by identity: the Log hands out one Topology per
// epoch, and the cache keys embed a full topology fingerprint anyway,
// so a duplicate engine costs only its construction.
func (p *Planner) engineFor(wiring *network.Topology) *cache.Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	eng, ok := p.engines[wiring]
	if !ok {
		eng = cache.NewEngine(p.base, wiring, p.opts, p.c)
		p.engines[wiring] = eng
	}
	return eng
}

// ForEpoch builds the EpochPlan for a record under the given wiring
// (the Log's post-record wiring). Pure in (record, wiring): a warm
// cache returns byte-identical plans.
func (p *Planner) ForEpoch(rec Record, wiring *network.Topology) (*EpochPlan, error) {
	id := rec.ID()
	p.mu.Lock()
	if ep, ok := p.epochs[id]; ok {
		p.mu.Unlock()
		return ep, nil
	}
	p.mu.Unlock()
	view := p.engineFor(wiring).View(rec.Members)
	strat, err := view.BuildStrategy()
	if err != nil {
		return nil, fmt.Errorf("member: epoch %d unplannable: %w", rec.Num, err)
	}
	ep := &EpochPlan{
		Record:   rec,
		Members:  view.Members(),
		Excluded: view.Excluded(),
		Wiring:   activeWiring(wiring, rec.Members),
		Strategy: strat,
		Resolve:  view.Resolve,
	}
	p.mu.Lock()
	p.epochs[id] = ep
	p.mu.Unlock()
	return ep, nil
}

// Replans returns the total number of plan syntheses performed so far
// across every epoch engine — 0 on a fully warm cache. The campaign
// verdict bundle records the cold and warm values of a churn sequence
// and gates the warm one at zero.
func (p *Planner) Replans() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total uint64
	for _, eng := range p.engines {
		total += eng.Stats().Misses
	}
	return total
}
