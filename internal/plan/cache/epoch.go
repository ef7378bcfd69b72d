package cache

import (
	"fmt"

	"btr/internal/network"
	"btr/internal/plan"
)

// EpochView couples an Engine with a membership epoch: a subset of the
// topology's node slots that are active. Planning-wise, a dormant slot
// is indistinguishable from a faulty node — no replica may be placed on
// it — so the view resolves every query through the engine with the
// epoch's excluded set folded into the fault set. This is what makes
// warm churn cheap: the effective sets of successive epochs differ by
// one or two nodes, so the engine's canonical-predecessor delta chain
// repairs the predecessor *epoch's* plan instead of synthesizing from
// scratch, and the shared content-addressed cache makes replaying a
// reconfiguration sequence (same workload, wiring, options) pure
// lookups.
//
// Like Engine.PlanFor, every view method is a pure function of its
// arguments — the cache only memoizes — so epoch plans are byte-
// identical whether reached by a churn sequence or planned directly for
// the final membership (pinned by TestEpochViewSequenceMatchesScratch).
type EpochView struct {
	eng      *Engine
	members  []network.NodeID
	excluded plan.FaultSet
}

// View returns the epoch view for the given active members (the
// remaining slots are excluded from placement). Members outside the
// topology's slot range panic: membership records are validated before
// planning ever sees them, so this is a programmer error.
func (e *Engine) View(members []network.NodeID) *EpochView {
	canon := plan.NewFaultSet(members...).Nodes()
	in := make(map[network.NodeID]bool, len(canon))
	for _, m := range canon {
		if int(m) < 0 || int(m) >= e.topo.N {
			panic(fmt.Sprintf("cache: member %d outside slot range [0,%d)", m, e.topo.N))
		}
		in[m] = true
	}
	var excl []network.NodeID
	for s := 0; s < e.topo.N; s++ {
		if !in[network.NodeID(s)] {
			excl = append(excl, network.NodeID(s))
		}
	}
	return &EpochView{
		eng:      e,
		members:  append([]network.NodeID(nil), canon...),
		excluded: plan.NewFaultSet(excl...),
	}
}

// Members returns the view's active members (shared slice; do not
// mutate).
func (v *EpochView) Members() []network.NodeID { return v.members }

// effective unions a member fault set with the epoch's exclusions.
func (v *EpochView) effective(fs plan.FaultSet) plan.FaultSet {
	if fs.Len() == 0 {
		return v.excluded
	}
	return plan.NewFaultSet(append(append([]network.NodeID(nil),
		v.excluded.Nodes()...), fs.Nodes()...)...)
}

// PlanFor resolves the plan for a member fault set under this epoch's
// membership, synthesizing (and memoizing in the shared cache) if
// needed.
func (v *EpochView) PlanFor(fs plan.FaultSet) (*plan.Plan, error) {
	return v.eng.PlanFor(v.effective(fs))
}

// BuildStrategy assembles the epoch's offline strategy: one plan per
// member fault pattern up to F (keyed by the member fault set, so
// runtime fault handling is membership-agnostic), bounds derived from
// the member-induced subgraph. The drop-in, per-epoch equivalent of
// Engine.BuildStrategy.
func (v *EpochView) BuildStrategy() (*plan.Strategy, error) {
	if err := v.eng.base.Validate(); err != nil {
		return nil, fmt.Errorf("plan: invalid workload: %w", err)
	}
	if v.eng.opts.F < 0 {
		return nil, fmt.Errorf("plan: negative fault bound")
	}
	plans := map[string]*plan.Plan{}
	for _, fs := range plan.EnumerateFaultSetsOver(v.members, v.eng.opts.F) {
		p, err := v.PlanFor(fs)
		if err != nil {
			return nil, fmt.Errorf("plan: epoch mode %v over members %v: %w", fs, v.members, err)
		}
		plans[fs.Key()] = p
	}
	return plan.NewStrategyForMembers(v.eng.base, v.eng.topo, v.eng.opts,
		v.members, plans, v.transition), nil
}

// transition memoizes the member-restricted transition analysis in the
// engine's memo, qualified by membership so epochs never cross-read.
func (v *EpochView) transition(a, b *plan.Plan) plan.Transition {
	key := a.Key() + "|" + b.Key() + "|m:" + plan.NewFaultSet(v.members...).Key()
	e := v.eng
	e.transMu.Lock()
	tr, ok := e.trans[key]
	e.transMu.Unlock()
	if ok {
		return tr
	}
	tr = plan.TransitionWithin(a, b, e.topo, e.opts, v.members)
	e.transMu.Lock()
	e.trans[key] = tr
	e.transMu.Unlock()
	return tr
}
