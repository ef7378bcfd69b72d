package runtime

import (
	"btr/internal/evidence"
	"btr/internal/network"
	"btr/internal/sim"
)

// Mode switching (§4.4): no agreement protocol. The fault set is
// append-only; valid evidence adds its accused node, path accusations feed
// the threshold attributor, and the successor plan is a pure function of
// the local fault set. Every correct node activates the new plan at
//
//	ceil((DetectedAt + Delta) / P) * P
//
// where Delta >= the evidence distribution bound, so all correct nodes
// hold the evidence before any of them activates — they converge on the
// same plan at the same period boundary. ("Since BTR allows the system to
// produce incorrect outputs for a limited time, some brief confusion may
// even be acceptable.")

// actOnEvidence updates the fault set from validated evidence; acc is a
// path accusation's decoded body.
func (n *Node) actOnEvidence(ev evidence.Evidence, acc evidence.Accusation) {
	if ev.Kind == evidence.KindOverBudget || ev.Kind == evidence.KindReconciled {
		// Budget verdicts convict no one: they exist so degradation is a
		// signed, flooded fact instead of a silent condition. Observers
		// (core's correctness monitor) see them through Config.Observer.
		return
	}
	if ev.Kind.Proof() {
		n.addFault(ev.Accused, ev.DetectedAt)
		return
	}
	// Path accusation: aggregate; convictions come from the attributor.
	if len(acc.Path) == 0 {
		return // validated evidence always decodes to a path; defensive
	}
	for _, convicted := range n.attributor.Add(acc.Path, acc.Reporter) {
		if convicted == n.id {
			continue // a node never excludes itself; others will
		}
		n.addFault(convicted, ev.DetectedAt)
	}
}

// addFault registers a newly-convicted node and schedules the mode change.
func (n *Node) addFault(x network.NodeID, detectedAt sim.Time) {
	if x < 0 || n.faults.Contains(x) || x == n.id {
		return
	}
	wasOver := n.overBudget()
	n.faults = n.faults.With(x)
	p := n.strat.Base.Period
	delta := n.strat.Delta
	// Activate one microsecond before a period boundary so the next
	// period is scheduled entirely under the new plan.
	boundary := ((detectedAt+delta)/p + 1) * p
	at := boundary - 1
	now := n.cfg.Kernel.Now()
	if at < now {
		at = now
	}
	n.cfg.Kernel.At(at, n.activate)
	if fa := n.cfg.ForgiveAfter; fa > 0 {
		// Parole is the conviction's expiry: boundary-aligned like the
		// activation above and derived from the same DetectedAt that rides
		// in the evidence, so every correct node paroles the same node at
		// the same instant without any agreement protocol (§4.4's argument,
		// run in reverse).
		pb := ((detectedAt+fa+delta)/p+1)*p - 1
		if pb < now {
			pb = now
		}
		n.cfg.Kernel.At(pb, func() { n.parole(x) })
	}
	// Budget verdicts exist only in the parole regime: the classic
	// append-only configuration (ForgiveAfter = 0) must stay byte-for-byte
	// unchanged, silent over-budget fallback included.
	if n.cfg.ForgiveAfter > 0 && !wasOver && n.overBudget() {
		n.raiseBudgetVerdict(evidence.KindOverBudget)
	}
}

// overBudget reports whether the local fault set exceeds the plan
// capacity f — the regime where Strategy.PlanFor falls back to the
// largest covered subset and the recovery bound is suspended.
func (n *Node) overBudget() bool { return n.faults.Len() > n.strat.Opts.F }

// parole removes an expired conviction (Config.ForgiveAfter elapsed since
// its DetectedAt) from the fault set and re-activates the plan. The fault
// set mutation is applied even while crashed so a later Restart resumes
// with the same set every other correct node holds; activate itself
// no-ops while crashed.
func (n *Node) parole(x network.NodeID) {
	if !n.faults.Contains(x) {
		return
	}
	wasOver := n.overBudget()
	n.faults = n.faults.Without(x)
	n.activate()
	if wasOver && !n.overBudget() {
		n.raiseBudgetVerdict(evidence.KindReconciled)
	}
}

// raiseBudgetVerdict seals and floods this node's declaration that its
// fault set just crossed the plan capacity boundary (in either
// direction): over-budget on the way up, reconciled on the way back.
func (n *Node) raiseBudgetVerdict(kind evidence.Kind) {
	bv := evidence.BudgetVerdict{
		Reporter: n.id,
		Active:   uint32(n.faults.Len()),
		Capacity: uint32(n.strat.Opts.F),
	}
	n.raiseEvidence(evidence.Sealed(n.cfg.Registry, kind, n.id, n.cfg.Kernel.Now(), bv))
}

// activate swaps to the plan for the current fault set.
func (n *Node) activate() {
	if n.crashed {
		return
	}
	next := n.strat.PlanFor(n.faults)
	if next == nil || next.Key() == n.cur.Key() {
		return
	}
	from := n.cur.Key()
	n.cur = next
	n.observe(Event{Kind: ModeSwitch, From: from, To: next.Key()})
}
