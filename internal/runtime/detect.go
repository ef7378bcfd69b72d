package runtime

import (
	"bytes"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sched"
	"btr/internal/sig"
	"btr/internal/sim"
)

// validator returns this node's evidence validator. It is built once per
// node lifetime (no per-message allocation): the closures read the node's
// current plan dynamically, so mode switches need no rebuild.
func (n *Node) validator() *evidence.Validator {
	if n.val != nil {
		return n.val
	}
	n.val = &evidence.Validator{
		Reg: n.cfg.Registry,
		Recompute: func(task flow.TaskID, period uint64, inputs []evidence.Record) ([]byte, bool) {
			if n.isSourceTask(task) {
				return nil, false // environment samples cannot be re-executed
			}
			return n.cfg.Compute(nil, task, period, inputs), true
		},
		Window: func(producer flow.TaskID, period uint64) (sim.Time, sim.Time, bool) {
			slot, ok := n.cur.Table.SlotFor(producer)
			if !ok {
				return 0, 0, false
			}
			return slot.Start, slot.End, true
		},
	}
	return n.val
}

func (n *Node) isSourceTask(logical flow.TaskID) bool {
	if t, ok := n.strat.Base.Tasks[logical]; ok {
		return t.Source
	}
	return false
}

// detectOnArrival runs the detector checks on a freshly received record:
// equivocation tracking (including the producer's attached inputs, which
// catches cross-consumer equivocation), timing validation, and the
// re-execution audit. It returns false if the record is malformed and
// should not count as an arrival.
func (n *Node) detectOnArrival(cur *plan.Plan, a *arrival) bool {
	rec := a.rec

	// Equivocation tracking for the record itself...
	n.trackEquivocation(a.env, rec)
	// ...and for each well-signed attachment (another producer's record).
	// Each attachment is checked and parsed in place once, here, into the
	// node's scratch; the audit below re-executes from the same records.
	// badInput notes an attachment that is badly signed or malformed.
	inputs := take(&n.auditInputs)
	defer func() { putBack(&n.auditInputs, inputs) }()
	badInput := false
	a.atts.All(func(att sig.Envelope) bool {
		if !n.cfg.Registry.Check(att) {
			badInput = true
			return true
		}
		ar, err := evidence.ParseRecord(att.Body)
		if err != nil || ar.Node != att.Signer {
			badInput = true
			return true
		}
		n.trackEquivocation(att, ar)
		inputs = append(inputs, ar)
		return true
	})

	// Timing: the claimed send offset must lie inside the producer's
	// scheduled slot. (A lying claim that stays in-window but arrives
	// late is handled by the arrival watchdog as a path accusation.)
	if slot, ok := n.cur.Table.SlotFor(rec.Producer); ok {
		if rec.SendOff < slot.Start || rec.SendOff > slot.End {
			n.raiseEvidence(evidence.Evidence{
				Kind: evidence.KindTiming, Accused: rec.Node, Reporter: n.id,
				DetectedAt: n.cfg.Kernel.Now(), Primary: a.env,
			})
			// Still an arrival: the value may be fine, and the proof
			// already convicts the producer.
		}
	}

	// Audit: sources cannot be re-executed; their cross-replica
	// comparison happens at input-choice time (majority voting).
	if n.isSourceTask(rec.Logical) {
		a.audited, a.consistent = true, true
		return true
	}
	// Digest must cover the attachments exactly; otherwise a relay may
	// have tampered and we cannot attribute — treat as non-arrival.
	if a.atts.Digest() != rec.InputsDigest {
		return false
	}
	// Only a proof collects the attachments into a slice of their own.
	if badInput {
		// The producer committed to a garbage input: bad-input proof.
		n.raiseEvidence(evidence.Evidence{
			Kind: evidence.KindBadInput, Accused: rec.Node, Reporter: n.id,
			DetectedAt: n.cfg.Kernel.Now(), Primary: a.env, Attachments: a.atts.Envelopes(),
		})
		a.audited, a.consistent = true, false
		return true
	}
	// Recompute into the node's scratch: the value is only compared.
	want := n.cfg.Compute(n.auditWant[:0], rec.Logical, rec.Period, inputs)
	a.audited = true
	a.consistent = string(want) == string(rec.Value)
	if !a.consistent {
		n.raiseEvidence(evidence.Evidence{
			Kind: evidence.KindWrongOutput, Accused: rec.Node, Reporter: n.id,
			DetectedAt: n.cfg.Kernel.Now(), Primary: a.env, Attachments: a.atts.Envelopes(),
		})
	}
	return true
}

// trackEquivocation remembers the first record content seen per (producer
// replica, period) and emits an equivocation proof when a conflicting
// second version appears.
func (n *Node) trackEquivocation(env sig.Envelope, rec evidence.Record) {
	key := producerPeriod{rec.Producer, rec.Period}
	if prev, ok := n.firstRecord[key]; ok {
		if bytes.Equal(prev.Body, env.Body) {
			return // the same record again: nothing to compare
		}
		prevRec, err := evidence.ParseRecord(prev.Body)
		if err == nil && evidence.SameSlot(prevRec, rec) && evidence.Conflicts(prevRec, rec) {
			n.raiseEvidence(evidence.Evidence{
				Kind: evidence.KindEquivocation, Accused: rec.Node, Reporter: n.id,
				DetectedAt: n.cfg.Kernel.Now(), Primary: prev, Secondary: env,
			})
		}
		return
	}
	n.firstRecord[key] = env
}

// checkArrived is the arrival watchdog: if the record for edge e (period
// p) has not arrived by its planned window plus margin, the node raises a
// path accusation over the route the message should have taken (§4.2:
// "allow both the sender and the recipient to declare a problem with the
// path between them").
func (n *Node) checkArrived(cur *plan.Plan, p uint64, e flow.Edge, w sched.MsgWindow) {
	delete(n.watchdogs, watchKey{p, e.From, e.To}) // fired; drop the handle
	if n.crashed || n.cur != cur {
		return
	}
	logical, _ := plan.SplitReplica(e.From)
	for _, a := range n.inbox[p][slotKey{e.To, logical}] {
		if a.rec.Producer == e.From {
			return // arrived
		}
	}
	srcNode := cur.Assign[e.From]
	key := accusedKey{producer: e.From, consumer: e.To, period: p}
	expired := Event{Kind: WatchdogExpired, Accused: srcNode, Task: e.From, Period: p, Reason: "accused the path"}
	switch {
	case n.faults.Contains(srcNode):
		expired.Reason = "producer already convicted" // mode change under way
	case n.accusedSlots[key]:
		expired.Reason = "slot already accused"
	}
	n.observe(expired)
	if expired.Reason != "accused the path" {
		return
	}
	n.accusedSlots[key] = true
	path, ok := n.cfg.Net.Topology().Path(srcNode, n.id)
	if !ok {
		path = []network.NodeID{srcNode, n.id}
	}
	n.accusePath(path, e.From, e.To, p)
}

// accuseSourceMinority raises accusations against source replicas whose
// value disagrees with the majority (sensor disagreement cannot be
// re-executed; see README.md, "The recovery bound").
func (n *Node) accuseSourceMinority(p uint64, consumer flow.TaskID, arr []*arrival, winner *arrival) {
	for _, a := range arr {
		if string(a.rec.Value) == string(winner.rec.Value) {
			continue
		}
		key := accusedKey{producer: a.rec.Producer, period: p}
		if n.accusedSlots[key] {
			continue
		}
		n.accusedSlots[key] = true
		n.accusePath([]network.NodeID{a.rec.Node, n.id}, a.rec.Producer, consumer, p)
	}
}

// accusePath signs and raises a path accusation.
func (n *Node) accusePath(path []network.NodeID, producer, consumer flow.TaskID, p uint64) {
	acc := evidence.Accusation{
		Reporter: n.id, Path: path, Producer: producer, Consumer: consumer, Period: p,
	}
	n.raiseEvidence(evidence.Sealed(n.cfg.Registry, evidence.KindPathAccusation, n.id, n.cfg.Kernel.Now(), acc))
}

// raiseEvidence handles locally-generated evidence: act on it and flood it
// (unless the adversary suppresses detection on this node).
func (n *Node) raiseEvidence(ev evidence.Evidence) {
	if b := n.behavior; b != nil && b.SuppressDetection {
		return
	}
	ev = ev.Canon() // encode once: ID and the flood below reuse the wire
	id := ev.ID()
	if n.seenEvidence[id] {
		return
	}
	n.seenEvidence[id] = true
	n.accept(ev)
}

// accept reports newly accepted evidence, acts on it and floods it. A
// path accusation is decoded once, here, into a stack buffer: its path's
// first node, where the missing record should have come from, is the
// event's Suspect, and the attributor reads the path.
func (n *Node) accept(ev evidence.Evidence) {
	accepted := Event{Kind: EvidenceAccepted, Evidence: ev,
		EvidenceKind: ev.Kind, Accused: ev.Accused, Reporter: ev.Reporter}
	var path [16]network.NodeID
	var acc evidence.Accusation
	if ev.Kind == evidence.KindPathAccusation {
		acc, _ = evidence.DecodeAccusation(ev.Primary.Body, path[:0]) // validated: it decodes
		if len(acc.Path) > 0 {
			accepted.Suspect = acc.Path[0]
		}
	}
	n.observe(accepted)
	n.actOnEvidence(ev, acc)
	n.forwardEvidence(ev)
}
