package cache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
)

// Engine is the incremental recovery-plan engine for one deployment
// (workload × topology × options). PlanFor resolves the plan for a fault
// set through three tiers, cheapest first:
//
//  1. exact cache hit — the fault set was solved before;
//  2. symmetry hit — a fault set in the same topology-automorphism orbit
//     was solved before; the cached canonical plan is relabeled through
//     the inverse automorphism (timing-identical, see plan.Plan.Relabel);
//  3. synthesis — the canonical representative is delta-planned from its
//     canonical predecessor's plan (plan.Synth.DeltaPlan), falling back
//     to full synthesis when no predecessor plan exists or the repair
//     cannot schedule.
//
// PlanFor is a pure function of the fault set: the cache only memoizes,
// so a warm engine returns byte-identical plans to a cold one (pinned by
// TestEngineWarmColdByteIdentical). Engines are safe for concurrent use:
// lookups are lock-free reads on the sharded cache, synthesis is
// serialized on an internal mutex.
type Engine struct {
	base *flow.Graph
	topo *network.Topology
	opts plan.Options

	cache  *Cache
	sym    *Symmetry
	prefix string // the cache's key prefix for this context (Cache.prefix)

	mu  sync.Mutex // serializes synthesis (plan.Synth is single-threaded)
	syn *plan.Synth

	transMu sync.Mutex
	trans   map[string]plan.Transition // memoized per (from,to) plan pair

	// Resolution-level counters: every PlanFor resolves to exactly one
	// of exactHits / symHits / misses (misses = resolutions that had to
	// synthesize, including recursive predecessor resolutions).
	exactHits   atomic.Uint64
	symHits     atomic.Uint64
	misses      atomic.Uint64
	deltaBuilds atomic.Uint64
	fullBuilds  atomic.Uint64
	canonExact  atomic.Uint64
}

// NewEngine builds an engine backed by the given cache; a nil cache gets
// a private one. The cache may be shared across engines (and across
// deployments): keys start with the cache's prefix for plan.AppendKey's
// exact encoding of everything a plan depends on, so entries are never
// stale and never collide.
func NewEngine(base *flow.Graph, topo *network.Topology, opts plan.Options, c *Cache) *Engine {
	if c == nil {
		c = New()
	}
	opts = opts.Normalized()
	var ctx [2048]byte
	return &Engine{
		base:   base,
		topo:   topo,
		opts:   opts,
		cache:  c,
		sym:    NewSymmetry(topo),
		prefix: c.prefix(plan.AppendKey(ctx[:0], base, topo, opts)),
		syn:    plan.NewSynth(base, topo, opts),
		trans:  map[string]plan.Transition{},
	}
}

// Symmetry returns the canonicalizer the engine resolves through; its
// memo holds every fault set the engine has looked up.
func (e *Engine) Symmetry() *Symmetry { return e.sym }

func (e *Engine) exactKey(fs plan.FaultSet) string { return e.prefix + "|x|" + fs.Key() }
func (e *Engine) canonKey(c Canon) string          { return e.prefix + "|" + c.Key }

// PlanFor returns the plan for the given fault set, synthesizing (and
// memoizing) it if needed. The error mirrors plan.Build's: a fault set
// whose every shedding level is unschedulable is reported, not masked.
func (e *Engine) PlanFor(fs plan.FaultSet) (*plan.Plan, error) {
	if p, ok := e.lookup(fs); ok {
		return p, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.synthesize(fs)
}

// lookup tries the exact and symmetry cache tiers.
func (e *Engine) lookup(fs plan.FaultSet) (*plan.Plan, bool) {
	if p, ok := e.cache.Get(e.exactKey(fs)); ok {
		e.exactHits.Add(1)
		return p, true
	}
	c := e.sym.Canonicalize(fs)
	rep, ok := e.cache.Get(e.canonKey(c))
	if !ok {
		return nil, false
	}
	e.symHits.Add(1)
	p := rep
	if c.FromRep != nil {
		p = rep.Relabel(c.FromRep)
	}
	// Promote to the exact tier so the relabeling runs once per fault
	// set, not once per query.
	e.cache.Put(e.exactKey(fs), p)
	return p, true
}

// synthesize computes the plan for fs via its canonical representative.
// Caller holds e.mu. The function is pure in fs — the cache only
// memoizes intermediate results — which is what makes warm and cold
// engines byte-identical.
func (e *Engine) synthesize(fs plan.FaultSet) (*plan.Plan, error) {
	if p, ok := e.lookup(fs); ok {
		return p, nil
	}
	e.misses.Add(1)
	c := e.sym.Canonicalize(fs)
	if c.Exact {
		e.canonExact.Add(1)
	}
	rep, err := e.synthesizeRep(c.Rep)
	if err != nil {
		return nil, err
	}
	e.cache.Put(e.canonKey(c), rep)
	p := rep
	if c.FromRep != nil {
		p = rep.Relabel(c.FromRep)
	}
	e.cache.Put(e.exactKey(fs), p)
	return p, nil
}

// synthesizeRep builds the canonical representative's plan: delta-
// repaired from the canonical predecessor's plan under MinimalDiff
// (recursing through the cache, so the chain is shared across the whole
// orbit lattice), full synthesis otherwise or when the predecessor
// itself is unschedulable.
func (e *Engine) synthesizeRep(rep plan.FaultSet) (*plan.Plan, error) {
	if rep.Len() > 0 && e.opts.MinimalDiff {
		preds := rep.Predecessors()
		pred := preds[len(preds)-1]
		if prior, err := e.synthesize(pred); err == nil {
			e.deltaBuilds.Add(1)
			return e.syn.DeltaPlan(prior, rep)
		}
	}
	e.fullBuilds.Add(1)
	return e.syn.BuildPlan(rep, nil)
}

// BuildStrategy assembles the full offline strategy through the cache:
// the drop-in, incremental equivalent of plan.Build. A cold call
// populates the cache (one synthesis per symmetry orbit instead of one
// per fault set); a warm call is pure lookups.
func (e *Engine) BuildStrategy() (*plan.Strategy, error) {
	if err := e.base.Validate(); err != nil {
		return nil, fmt.Errorf("plan: invalid workload: %w", err)
	}
	if e.opts.F < 0 {
		return nil, fmt.Errorf("plan: negative fault bound")
	}
	plans := map[string]*plan.Plan{}
	for _, fs := range plan.EnumerateFaultSets(e.topo.N, e.opts.F) {
		p, err := e.PlanFor(fs)
		if err != nil {
			return nil, fmt.Errorf("plan: mode %v: %w", fs, err)
		}
		plans[fs.Key()] = p
	}
	return plan.NewStrategyFromPlans(e.base, e.topo, e.opts, plans, e.transition), nil
}

// transition memoizes the transition analysis per (from, to) plan pair.
// Transitions are pure functions of the two plans, so the memo — like
// the plan cache — can only reproduce, never alter, the cold result.
func (e *Engine) transition(a, b *plan.Plan) plan.Transition {
	key := a.Key() + "|" + b.Key()
	e.transMu.Lock()
	tr, ok := e.trans[key]
	e.transMu.Unlock()
	if ok {
		return tr
	}
	tr = plan.TransitionBetween(a, b, e.topo, e.opts)
	e.transMu.Lock()
	e.trans[key] = tr
	e.transMu.Unlock()
	return tr
}

// Stats is a point-in-time snapshot of the engine's counters. Every
// resolved fault set counts exactly once: as an exact hit, a symmetry
// hit (relabel of a cached orbit representative), or a miss (had to
// synthesize — delta_builds + full_builds says how).
type Stats struct {
	Entries      int    `json:"entries"`
	ExactHits    uint64 `json:"exact_hits"`
	SymmetryHits uint64 `json:"symmetry_hits"`
	Misses       uint64 `json:"misses"`
	DeltaBuilds  uint64 `json:"delta_builds"`
	FullBuilds   uint64 `json:"full_builds"`
	CanonExact   uint64 `json:"canon_budget_fallbacks"`
}

// Stats returns the current counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Entries:      e.cache.Len(),
		ExactHits:    e.exactHits.Load(),
		SymmetryHits: e.symHits.Load(),
		Misses:       e.misses.Load(),
		DeltaBuilds:  e.deltaBuilds.Load(),
		FullBuilds:   e.fullBuilds.Load(),
		CanonExact:   e.canonExact.Load(),
	}
}
