package runtime

import (
	"fmt"

	"btr/internal/member"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sim"
)

// Online membership reconfiguration: the two-phase epoch switch.
//
// Phase 1 (prepare): the operator — the external configuration
// authority holding the registry's operator key, never a node — seals
// the next epoch record (ActivateAt zero) and hands it to every current
// member through its console attachment; members also flood it to their
// neighbors on the reserved evidence share, so a console drop does not
// strand anyone. Each member validates the record against its local
// chained log (exact next number, predecessor hash, legal membership)
// and acknowledges to the operator.
//
// Phase 2 (commit): once n-f distinct members acknowledge — every
// member that is not one of the up-to-f faulty nodes provably holds the
// record — the operator picks the activation instant
//
//	ceil((now + Delta') / P) * P - 1,   Delta' = max(Delta_cur, Delta_next)
//
// (mirroring the fault switch's boundary-minus-epsilon convention, with
// Delta' covering evidence and commit distribution in both the outgoing
// and incoming epoch), seals the commit form of the record with that
// instant, and distributes it the same two ways. Every node — dormant
// slots included, which is how joiners are provisioned — appends the
// commit to its log and schedules activation.
//
// Activation: at the recorded instant every correct node atomically
// swaps strategy, plan source, and plan; disarms every armed watchdog
// (the new period re-arms under the new plan — watchdogs guarding
// retired producers must not fire); retiring nodes schedule no further
// periods; joining nodes schedule their first; and the operator swaps
// the transport wiring, removing retired links and adding links toward
// joiners. In-flight evidence stays valid: node
// identities and keys are never reassigned across epochs, so a
// signature attributes the same physical signer in every epoch, and
// local fault sets remain append-only through any number of
// reconfigurations.
//
// Why correct nodes converge: commits are operator-signed (the
// adversary cannot forge or alter them), logs accept exactly the next
// chain record (replays and reorders are inert), the quorum rule plus
// console delivery put the commit on every correct member before
// activation, and ActivateAt is embedded in the signed record — so all
// correct members activate the same epoch at the same instant, the same
// argument §4.4 makes for fault-mode switches.

// EpochConfig enables online membership reconfiguration on a runtime
// System. Strategy/Planner in the enclosing Config must describe the
// genesis epoch (the harness builds them through member.Planner).
type EpochConfig struct {
	// Genesis is the epoch-0 record (initial membership, no link delta).
	Genesis member.Record
	// Resolve produces the per-epoch planning artifacts for a record
	// under the wiring the record activates (the operator's log computes
	// it). Called once per epoch and memoized; must be a pure function
	// of (record, wiring) — the plan cache makes warm calls cheap.
	Resolve func(rec member.Record, wiring *network.Topology) (*EpochInfo, error)
}

// EpochInfo is everything the runtime needs to execute one epoch.
// Harnesses build it from member.EpochPlan.
type EpochInfo struct {
	Record   member.Record
	Members  []network.NodeID
	Wiring   *network.Topology
	Strategy *plan.Strategy
	Planner  PlanSource
}

// memberOf reports whether id is active in this epoch.
func (i *EpochInfo) memberOf(id network.NodeID) bool {
	for _, m := range i.Members {
		if m == id {
			return true
		}
	}
	return false
}

// PlannerResolve adapts a member.Planner into the EpochConfig.Resolve
// seam — the one-liner every harness (core, live, tests) needs.
func PlannerResolve(p *member.Planner) func(member.Record, *network.Topology) (*EpochInfo, error) {
	return func(rec member.Record, wiring *network.Topology) (*EpochInfo, error) {
		ep, err := p.ForEpoch(rec, wiring)
		if err != nil {
			return nil, err
		}
		return &EpochInfo{
			Record: rec, Members: ep.Members, Wiring: ep.Wiring, Strategy: ep.Strategy,
			Planner: PlanSource(ep.Resolve),
		}, nil
	}
}

// epochFrame wire framing: kind byte 'M', then a phase byte, then the
// operator-sealed record. Acks do not cross the node network — they are
// the node's console reply to the operator.
const (
	epochPhasePrepare = 'P'
	epochPhaseCommit  = 'C'
)

func epochPayload(phase byte, sealed []byte) []byte {
	out := make([]byte, 0, 2+len(sealed))
	return append(append(out, msgMember, phase), sealed...)
}

// operator drives reconfigurations for one System. All methods run in
// scheduler callbacks (single-threaded, like the rest of the runtime).
type operator struct {
	sys   *System
	log   *member.Log // the authoritative chain the operator proposes from
	infos map[[16]byte]*EpochInfo

	queue    []member.Delta
	pending  *pendingEpoch
	awaiting bool // a committed epoch has not activated yet
}

type pendingEpoch struct {
	rec    member.Record
	sealed []byte
	acks   map[network.NodeID]bool
}

// initEpochs wires the epoch machinery into a freshly built System:
// per-node membership logs, genesis membership/dormancy, and the
// genesis transport state (wiring restricted to the member links,
// dormant slots down). Called from New before Start.
func (s *System) initEpochs() {
	ec := s.cfg.Epochs
	universe := s.cfg.Net.Topology()
	mkLog := func() *member.Log {
		l, err := member.NewLog(universe, ec.Genesis)
		if err != nil {
			panic(fmt.Sprintf("runtime: invalid genesis record: %v", err))
		}
		return l
	}
	s.op = &operator{sys: s, log: mkLog(), infos: map[[16]byte]*EpochInfo{}}
	genesis, err := s.op.resolveInfo(ec.Genesis)
	if err != nil {
		panic(fmt.Sprintf("runtime: genesis epoch unplannable: %v", err))
	}
	s.cfg.Net.SetWiring(genesis.Wiring)
	for _, nd := range s.nodes {
		nd.elog = mkLog()
		nd.seenEpoch = map[[16]byte]bool{}
		nd.memberNow = genesis.memberOf(nd.id)
		if !nd.memberNow {
			s.cfg.Net.SetDown(nd.id, true) // dormant slot: no links serve it anyway
		}
	}
}

// ScheduleReconfig enqueues a reconfiguration to be proposed at time t
// (deltas proposed while an earlier one is still in flight wait their
// turn; epochs are strictly ordered). Panics unless Config.Epochs was
// set.
func (s *System) ScheduleReconfig(t sim.Time, d member.Delta) {
	if s.op == nil {
		panic("runtime: ScheduleReconfig without Config.Epochs")
	}
	s.cfg.Kernel.At(t, func() {
		s.op.queue = append(s.op.queue, d)
		s.op.maybePropose()
	})
}

// EpochOf returns node id's current epoch number (0 without epochs).
func (s *System) EpochOf(id network.NodeID) uint64 {
	nd := s.nodes[int(id)]
	if nd.elog == nil {
		return 0
	}
	return nd.activeEpoch
}

// IsMember reports whether node id considers itself an active member of
// its current epoch. Note a crashed node's view freezes at its crash —
// use Members for the operator's authoritative membership.
func (s *System) IsMember(id network.NodeID) bool { return s.nodes[int(id)].memberNow }

// Members returns the newest committed epoch's membership from the
// operator's authoritative log (nil without Config.Epochs).
func (s *System) Members() []network.NodeID {
	if s.op == nil {
		return nil
	}
	return s.op.log.Members()
}

// WatchdogCount returns the number of armed arrival watchdogs on node
// id (teardown tests).
func (s *System) WatchdogCount(id network.NodeID) int { return len(s.nodes[int(id)].watchdogs) }

// resolveInfo memoizes EpochConfig.Resolve by record ID, computing the
// record's wiring from the operator's log (the current record's own
// wiring, or a validated preview for the next one).
func (op *operator) resolveInfo(rec member.Record) (*EpochInfo, error) {
	id := rec.ID()
	if info, ok := op.infos[id]; ok {
		return info, nil
	}
	var wiring *network.Topology
	if rec.Num == op.log.Epoch() && id == op.log.Current().ID() {
		wiring = op.log.Wiring()
	} else {
		var err error
		if wiring, err = op.log.PreviewWiring(rec); err != nil {
			return nil, err
		}
	}
	info, err := op.sys.cfg.Epochs.Resolve(rec, wiring)
	if err != nil {
		return nil, err
	}
	op.infos[id] = info
	return info, nil
}

// maybePropose starts the prepare phase for the next queued delta, if
// idle.
func (op *operator) maybePropose() {
	if op.pending != nil || op.awaiting || len(op.queue) == 0 {
		return
	}
	d := op.queue[0]
	op.queue = op.queue[1:]
	rec, err := op.log.Propose(d)
	if err != nil {
		op.sys.observe(Event{Kind: EpochRejected, Node: -1, Epoch: op.log.NextNum(), Err: err.Error()})
		op.maybePropose()
		return
	}
	op.pending = &pendingEpoch{
		rec:    rec,
		sealed: member.Seal(op.sys.cfg.Registry, rec),
		acks:   map[network.NodeID]bool{},
	}
	op.sys.observe(Event{Kind: EpochProposed, Node: -1, Epoch: rec.Num})
	// Console-deliver the prepare to every current member; each also
	// floods it in-band.
	payload := epochPayload(epochPhasePrepare, op.pending.sealed)
	for _, m := range op.log.Members() {
		op.sys.nodes[int(m)].onEpochFrame(payload, nil)
	}
}

// onAck counts a member's prepare acknowledgment; quorum commits.
func (op *operator) onAck(from network.NodeID, id [16]byte) {
	p := op.pending
	if p == nil || p.rec.ID() != id || p.acks[from] {
		return
	}
	p.acks[from] = true
	op.sys.observe(Event{Kind: EpochAck, Node: from, Epoch: p.rec.Num, Acks: len(p.acks)})
	if len(p.acks) >= member.Quorum(len(op.log.Members()), op.sys.cfg.Strategy.Opts.F) {
		op.commit()
	}
}

// commit seals the activation instant into the record and distributes
// it to every slot (dormant ones included: that is how joiners are
// provisioned with the chain).
func (op *operator) commit() {
	p := op.pending
	now := op.sys.cfg.Kernel.Now()
	tmp, err := op.resolveInfo(p.rec)
	if err != nil {
		op.sys.observe(Event{Kind: EpochRejected, Node: -1, Epoch: p.rec.Num, Err: err.Error()})
		op.pending = nil
		op.maybePropose()
		return
	}
	// The activation delay must cover distribution in whichever epoch is
	// slower, then round to just before a period boundary so the next
	// period runs entirely under the new epoch.
	curStrat := op.curStrategy()
	delta := curStrat.Delta
	if tmp.Strategy.Delta > delta {
		delta = tmp.Strategy.Delta
	}
	period := curStrat.Base.Period
	activateAt := ((now+delta)/period+1)*period - 1
	final := p.rec.WithActivation(activateAt)
	info := *tmp
	info.Record = final
	op.infos[final.ID()] = &info
	if err := op.log.Append(final); err != nil {
		panic(fmt.Sprintf("runtime: operator log rejected its own record: %v", err))
	}
	op.sys.observe(Event{Kind: EpochCommitted, Node: -1, Epoch: final.Num, Acks: len(p.acks)})
	// Operator-side activation runs before any node's (inserted first at
	// the same instant): wiring changes are visible the moment
	// nodes start their first period under the new epoch.
	op.sys.cfg.Kernel.At(activateAt, func() { op.applyActivation(&info) })
	payload := epochPayload(epochPhaseCommit, member.Seal(op.sys.cfg.Registry, final))
	for _, nd := range op.sys.nodes {
		nd.onEpochFrame(payload, nil)
	}
	op.pending = nil
	op.awaiting = true
}

// curStrategy returns the newest activated-or-committed epoch's
// strategy (falls back to the genesis strategy).
func (op *operator) curStrategy() *plan.Strategy {
	if info, ok := op.infos[op.log.Current().ID()]; ok {
		return info.Strategy
	}
	return op.sys.cfg.Strategy
}

// applyActivation swaps the transport to the new epoch's wiring and
// up/down state. Node crash state always wins: a crashed member stays
// down.
func (op *operator) applyActivation(info *EpochInfo) {
	net := op.sys.cfg.Net
	net.SetWiring(info.Wiring)
	for _, nd := range op.sys.nodes {
		net.SetDown(nd.id, nd.crashed || !info.memberOf(nd.id))
	}
	op.awaiting = false
	op.sys.observe(Event{Kind: EpochActivated, Node: -1, Epoch: info.Record.Num,
		Members: plan.NewFaultSet(info.Members...).String(), R: info.Strategy.RNeeded})
	op.maybePropose()
}

// --- node side --------------------------------------------------------------

// onEpochFrame handles a membership frame, from the network (m != nil)
// or the operator console (m == nil).
func (n *Node) onEpochFrame(payload []byte, m *network.Message) {
	if n.crashed || n.elog == nil || len(payload) < 2 {
		return
	}
	if m != nil {
		// Network path: membership frames share the per-neighbor
		// evidence budget, so a Byzantine 'M' flood cannot exhaust
		// signature-verification capacity any more than an evidence
		// flood can.
		n.evBudget[m.From]++
		if n.evBudget[m.From] > n.cfg.EvidenceRateLimit {
			n.EvidenceDropped++
			return
		}
	}
	phase, sealed := payload[1], payload[2:]
	rec, err := member.Open(n.cfg.Registry, sealed)
	if err != nil {
		return // forged, bit-flipped, or truncated: drop
	}
	switch phase {
	case epochPhasePrepare:
		n.onEpochPrepare(rec, payload)
	case epochPhaseCommit:
		n.onEpochCommit(rec, payload)
	}
}

// onEpochPrepare validates and acknowledges a prepare, and floods it.
func (n *Node) onEpochPrepare(rec member.Record, payload []byte) {
	if rec.ActivateAt != 0 {
		return // prepare must not carry an activation instant
	}
	if err := n.elog.Validate(rec); err != nil {
		return // stale, replayed, forked, or illegal: inert
	}
	id := rec.ID()
	if n.seenEpoch[id] {
		return
	}
	n.seenEpoch[id] = true
	n.floodEpochFrame(payload)
	if b := n.behavior; b != nil && b.SuppressEpochAcks {
		return
	}
	n.sys.op.onAck(n.id, id)
}

// onEpochCommit appends a commit to the local chain, floods it, and
// schedules activation at the recorded instant.
func (n *Node) onEpochCommit(rec member.Record, payload []byte) {
	if rec.ActivateAt <= 0 {
		return // commit must carry the activation instant
	}
	id := rec.ID()
	if n.seenEpoch[id] {
		return
	}
	if err := n.elog.Append(rec); err != nil {
		return // stale, replayed, forked, or illegal: inert
	}
	n.seenEpoch[id] = true
	n.floodEpochFrame(payload)
	now := n.cfg.Kernel.Now()
	if rec.ActivateAt > now {
		n.cfg.Kernel.At(rec.ActivateAt, func() { n.activateEpoch(rec) })
		return
	}
	// Catch-up (a provisioned joiner replaying the chain): the epoch is
	// already live; adopt it immediately.
	n.activateEpoch(rec)
}

// floodEpochFrame relays a membership frame to all neighbors on the
// reserved evidence share (members only; dormant slots are silent).
func (n *Node) floodEpochFrame(payload []byte) {
	if n.memberNow {
		for _, nb := range n.cfg.Net.Topology().Neighbors(n.id) {
			n.cfg.Net.SendDirect(n.id, nb, network.ClassEvidence, payload)
		}
	}
}

// activateEpoch performs this node's side of the epoch switch.
func (n *Node) activateEpoch(rec member.Record) {
	if n.crashed {
		return
	}
	info, err := n.sys.op.resolveInfo(rec)
	if err != nil {
		return // the operator rejected the epoch before commit; unreachable for committed records
	}
	wasMember := n.memberNow
	n.memberNow = info.memberOf(n.id)
	n.strat = info.Strategy
	n.planner = info.Planner
	n.activeEpoch = rec.Num
	// Disarm every armed watchdog: edges guarded under the old epoch's
	// plan — including every edge from or to a retired node — must not
	// fire into the new epoch. The first period under the new plan
	// re-arms its own.
	for wk, h := range n.watchdogs {
		n.cfg.Kernel.Cancel(h)
		delete(n.watchdogs, wk)
	}
	if next := n.planFor(n.faults); next != nil && next.Key() != n.cur.Key() {
		n.cur = next
	}
	if n.memberNow && !wasMember {
		// Joining: the first full period after activation is ours.
		// ActivateAt is one microsecond before a period boundary.
		n.schedulePeriod(uint64((rec.ActivateAt + 1) / n.strat.Base.Period))
	}
}
