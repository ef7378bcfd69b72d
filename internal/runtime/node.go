package runtime

import (
	"bytes"
	"cmp"
	"slices"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/member"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sched"
	"btr/internal/sig"
	"btr/internal/sim"
)

// arrival is one received (or locally produced) record with provenance.
// Its envelope and attachment list alias the record's data frame.
type arrival struct {
	env  sig.Envelope
	rec  evidence.Record
	atts evidence.EnvelopeList
	at   sim.Time
	// audited is set once re-execution confirmed the record is
	// self-consistent (or the producer is a source, where consistency
	// cannot be checked).
	audited bool
	// consistent is the audit verdict.
	consistent bool
}

// slotKey indexes the inbox by (consumer replica, logical producer).
type slotKey struct {
	consumer flow.TaskID
	logical  flow.TaskID
}

// watchKey names one armed arrival watchdog: the edge it guards plus the
// period it covers.
type watchKey struct {
	period   uint64
	from, to flow.TaskID // producer replica -> consumer replica
}

// producerPeriod names one producer replica's output slot in one period.
type producerPeriod struct {
	producer flow.TaskID
	period   uint64
}

// accusedKey names one locally generated accusation: an edge's missing
// record in a period, or (consumer empty) a source replica outvoted in a
// period.
type accusedKey struct {
	producer, consumer flow.TaskID
	period             uint64
}

// Node is one BTR runtime node.
type Node struct {
	id  network.NodeID
	cfg *Config
	sys *System

	behavior *Behavior
	crashed  bool
	// chainArmed tracks whether the self-rescheduling period chain is
	// still alive: schedulePeriod re-arms it, and the chain dies (flag
	// cleared) when a link fires while crashed or non-member. Restart
	// consults it so a crash healed within the same period does not end
	// up with two concurrent chains.
	chainArmed bool

	// strat and planner are the node's *current epoch's* strategy and
	// plan source. Without membership epochs they alias cfg.Strategy /
	// cfg.Planner forever; an epoch activation swaps both atomically
	// with the plan.
	strat   *plan.Strategy
	planner PlanSource
	// memberNow reports whether this node is an active member of the
	// current epoch. Dormant slots (not yet joined, or retired) keep
	// their runtime but schedule no periods, emit nothing, and flood
	// nothing.
	memberNow bool
	// Epoch-switch state (nil / empty unless Config.Epochs is set).
	elog        *member.Log
	seenEpoch   map[[16]byte]bool
	activeEpoch uint64

	cur    *plan.Plan    // current mode's plan
	faults plan.FaultSet // append-only local fault set

	// watched is watchPlan's edges whose consumer lives here, in arming
	// order (see watchedEdges).
	watchPlan *plan.Plan
	watched   []watchedEdge

	// inbox: per period, per (consumer, logical producer), arrivals.
	inbox map[uint64]map[slotKey][]*arrival
	// spareInbox is an emptied per-period inbox map awaiting reuse.
	spareInbox map[slotKey][]*arrival
	// arrivals is the unused rest of the chunk newArrival carves from,
	// and slotLists the rest of the one inbox slot lists are carved from.
	arrivals  []arrival
	slotLists []*arrival
	// Scratch reused call after call: the arrival audit's decoded
	// attachments and recomputed value, and a task's chosen input records
	// and envelopes (see take and putBack) and computed value, which
	// sealFrame copies into the frame.
	auditInputs []evidence.Record
	auditWant   [64]byte
	chosenRecs  []evidence.Record
	chosenAtts  []sig.Envelope
	value       [64]byte
	// firstRecord tracks the first record content per (producer replica,
	// period) for equivocation detection.
	firstRecord map[producerPeriod]sig.Envelope
	// seenEvidence dedups evidence by ID.
	seenEvidence map[[16]byte]bool
	// attributor aggregates path accusations.
	attributor *evidence.Attributor
	// evBudget counts evidence messages processed per neighbor this
	// period (rate limit).
	evBudget map[network.NodeID]int
	// accusedSlots dedups locally-generated accusations.
	accusedSlots map[accusedKey]bool
	// watchdogs holds the armed arrival-watchdog handles. When the
	// awaited record arrives, the watchdog is cancelled immediately —
	// dead watchdogs no longer sit in the event heap until their
	// timestamp drains (they used to dominate the pending set: one per
	// consumed edge per period, almost all of them no-ops).
	watchdogs map[watchKey]sim.Handle
	// val is the lazily built, node-lifetime evidence validator (see
	// validator() in detect.go).
	val *evidence.Validator

	// EvidenceDropped counts evidence and membership frames dropped by
	// the per-neighbor rate limit.
	EvidenceDropped int
}

func newNode(id network.NodeID, cfg *Config) *Node {
	return &Node{
		id:           id,
		cfg:          cfg,
		strat:        cfg.Strategy,
		planner:      cfg.Planner,
		memberNow:    true,
		cur:          cfg.Strategy.Plans[""],
		faults:       plan.NewFaultSet(),
		inbox:        map[uint64]map[slotKey][]*arrival{},
		firstRecord:  map[producerPeriod]sig.Envelope{},
		seenEvidence: map[[16]byte]bool{},
		attributor:   evidence.NewAttributor(cfg.Strategy.Opts.OmissionThreshold),
		evBudget:     map[network.NodeID]int{},
		accusedSlots: map[accusedKey]bool{},
		watchdogs:    map[watchKey]sim.Handle{},
	}
}

// ID returns the node's identity.
func (n *Node) ID() network.NodeID { return n.id }

// FaultSet returns the node's local fault set.
func (n *Node) FaultSet() plan.FaultSet { return n.faults }

// start schedules period 0.
func (n *Node) start() { n.schedulePeriod(0) }

// periodStart returns the absolute start time of period p.
func (n *Node) periodStart(p uint64) sim.Time {
	return sim.Time(p) * n.strat.Base.Period
}

// schedulePeriod sets up all of this node's slot executions and watchdogs
// for period p, then re-arms for p+1. A node that is not a member of the
// current epoch (dormant or retired) schedules nothing — retirement ends
// the chain here. All of the period's events live in one slice, so a
// period costs one allocation however many slots and edges it has.
func (n *Node) schedulePeriod(p uint64) {
	if n.crashed || !n.memberNow {
		n.chainArmed = false
		return
	}
	n.chainArmed = true
	k := n.cfg.Kernel
	base := n.periodStart(p)
	cur := n.cur // capture: activation may swap plans mid-period

	// Reset per-period evidence budgets (clear keeps the map's storage
	// instead of re-growing a fresh one every period) and flood bogus
	// evidence if the adversary asked for it.
	clear(n.evBudget)
	if b := n.behavior; b != nil && b.BogusEvidencePerPeriod > 0 {
		n.floodBogus(b.BogusEvidencePerPeriod)
	}

	slots := cur.Table.Slots[n.id]
	watched := n.watchedEdges(cur)
	evs := make([]periodEvent, 0, len(slots)+len(watched)+1)
	at := func(t sim.Time, ev periodEvent) sim.Handle {
		evs = append(evs, ev)
		return k.AtEvent(t, &evs[len(evs)-1])
	}
	// Execute this node's slots: a task's output is computed and sent at
	// its slot end (the table accounts for the WCET before it).
	for _, slot := range slots {
		at(base+slot.End, periodEvent{n: n, cur: cur, p: p, kind: stepFinish, task: slot.Task})
	}
	// Arm arrival watchdogs for edges whose consumer lives here (local
	// handoffs included: a colocated producer replica can omit too). The
	// handle is kept so the watchdog can be disarmed the moment the
	// record arrives.
	margin := n.strat.Opts.WatchdogMargin
	for i := range watched {
		we := &watched[i]
		h := at(base+we.w.Arrive+margin, periodEvent{n: n, cur: cur, p: p, kind: stepWatch, watch: we})
		n.watchdogs[watchKey{p, we.e.From, we.e.To}] = h
	}
	// Garbage-collect old inbox periods (keep two), keeping the dropped
	// period's map, emptied, for the next period to fill.
	if p >= 2 {
		if old := n.inbox[p-2]; old != nil {
			delete(n.inbox, p-2)
			clear(old)
			n.spareInbox = old
		}
	}
	at(base+n.strat.Base.Period, periodEvent{n: n, cur: cur, p: p, kind: stepNext})
}

// periodStep says what a periodEvent does when it fires.
type periodStep uint8

const (
	stepFinish periodStep = iota // run a slot's task to completion
	stepWatch                    // check a watched edge's arrival
	stepNext                     // schedule the next period
)

// periodEvent is one scheduled step of one node-period.
type periodEvent struct {
	n     *Node
	cur   *plan.Plan
	p     uint64
	task  flow.TaskID  // stepFinish
	watch *watchedEdge // stepWatch
	kind  periodStep
}

// Fire runs the step.
func (ev *periodEvent) Fire() {
	switch ev.kind {
	case stepFinish:
		ev.n.finishTask(ev.cur, ev.p, ev.task)
	case stepWatch:
		ev.n.checkArrived(ev.cur, ev.p, ev.watch.e, ev.watch.w)
	default:
		ev.n.schedulePeriod(ev.p + 1)
	}
}

// watchedEdge is one edge whose record this node awaits every period.
type watchedEdge struct {
	e flow.Edge
	w sched.MsgWindow
}

// watchedEdges returns cur's edges whose consumer lives on this node,
// sorted by (From, To, Bytes): the order their watchdogs are armed in.
// Watchdogs due at the same instant fire in arming order and send their
// accusations in that order, so the order is part of every table; the
// graph's edge order (bundle by bundle) is not this one. The list is
// built once per plan the node runs.
func (n *Node) watchedEdges(cur *plan.Plan) []watchedEdge {
	if n.watchPlan == cur {
		return n.watched
	}
	var list []watchedEdge
	for _, w := range cur.Table.Msgs {
		if cur.Assign[w.Edge.To] == n.id {
			list = append(list, watchedEdge{w.Edge, w})
		}
	}
	slices.SortFunc(list, func(a, b watchedEdge) int {
		if c := cmp.Compare(a.e.From, b.e.From); c != 0 {
			return c
		}
		if c := cmp.Compare(a.e.To, b.e.To); c != 0 {
			return c
		}
		return cmp.Compare(a.e.Bytes, b.e.Bytes)
	})
	// A fresh slice, never refilled: pending watchdogs of earlier
	// periods still point into the old one.
	n.watchPlan, n.watched = cur, list
	return list
}

// chosenInputs picks, for each logical input of task, the record the task
// will compute with: the first *audited-consistent* arrival, with majority
// vote among source replicas (sources cannot be audited). It appends the
// chosen records to recs and their envelopes to atts, in logical-input
// order, or returns false if some logical input has no usable record
// (omission upstream).
func (n *Node) chosenInputs(recs []evidence.Record, atts []sig.Envelope, cur *plan.Plan, p uint64, task flow.TaskID) ([]evidence.Record, []sig.Envelope, bool) {
	var buf [8]flow.TaskID
	logicals := buf[:0]
	for _, e := range cur.Aug.Inputs(task) {
		logical, _ := plan.SplitReplica(e.From)
		if !slices.Contains(logicals, logical) {
			logicals = append(logicals, logical)
		}
	}
	slices.Sort(logicals)
	perSlot := n.inbox[p]
	for _, logical := range logicals {
		arr := perSlot[slotKey{task, logical}]
		var pick *arrival
		if len(arr) > 0 && arr[0].rec.Producer != "" {
			if isSourceLogical(cur, logical) {
				pick = majority(arr)
				if pick != nil {
					n.accuseSourceMinority(p, task, arr, pick)
				}
			} else {
				for _, a := range arr {
					if a.audited && a.consistent {
						pick = a
						break
					}
				}
			}
		}
		if pick == nil {
			return recs, atts, false
		}
		recs = append(recs, pick.rec)
		atts = append(atts, pick.env)
	}
	return recs, atts, true
}

func isSourceLogical(cur *plan.Plan, logical flow.TaskID) bool {
	if t, ok := cur.Pruned.Tasks[logical]; ok {
		return t.Source
	}
	return false
}

// majority returns the arrival whose value has the most supporters
// (ties: earliest arrival among the largest class). Source replica sets
// are small, so the classes are counted pairwise.
func majority(arr []*arrival) *arrival {
	best, bestCount := -1, 0
	for i, a := range arr {
		c := 0
		for _, b := range arr {
			if bytes.Equal(a.rec.Value, b.rec.Value) {
				c++
			}
		}
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	if best < 0 {
		return nil
	}
	return arr[best]
}

// finishTask computes the task's output at its slot end and emits it.
func (n *Node) finishTask(cur *plan.Plan, p uint64, task flow.TaskID) {
	if n.crashed || n.cur != cur {
		return
	}
	logical, _ := plan.SplitReplica(task)
	lt, ok := cur.Pruned.Tasks[logical]
	isChecker := plan.IsChecker(logical)
	if !ok && !isChecker {
		return
	}

	// value and atts are the node's scratch: sealFrame copies both.
	var value []byte
	atts := take(&n.chosenAtts)
	defer func() { putBack(&n.chosenAtts, atts) }()
	switch {
	case isChecker:
		// The per-arrival audit has already re-executed each sink
		// replica's command and fed its attachments through the
		// equivocation tracker, so the checker's slot is its reserved CPU
		// time; silent sink replicas are the arrival watchdogs' to catch.
		return
	case lt.Source:
		value = n.cfg.Source(n.value[:0], logical, p)
	default:
		var recs []evidence.Record
		var usable bool
		recs, atts, usable = n.chosenInputs(take(&n.chosenRecs), atts, cur, p, task)
		if usable {
			value = n.cfg.Compute(n.value[:0], logical, p, recs)
		}
		putBack(&n.chosenRecs, recs)
		if !usable {
			return // upstream omission: this replica stays silent
		}
	}

	// Build the signed record committing to the chosen inputs.
	rec := evidence.Record{
		Producer: task, Logical: logical, Node: n.id,
		Period: p, SendOff: cur.Table.Finish(task), Value: value,
		InputsDigest: evidence.DigestEnvelopes(atts),
	}

	// Actuate if this replica implements a logical sink.
	if lt != nil && lt.Sink {
		n.actuate(p, logical, rec)
	}

	// Emit one message per output edge. The record is sealed, encoded and
	// framed once and that one payload goes out on every edge: ed25519 is
	// deterministic, so it is byte-identical to sealing per edge.
	var frame []byte
	for _, e := range cur.Aug.Outputs(task) {
		n.emit(cur, rec, atts, e, &frame)
	}
}

// actuate delivers the sink command to the physical world (unless the
// adversary suppresses it).
func (n *Node) actuate(p uint64, logical flow.TaskID, rec evidence.Record) {
	if b := n.behavior; b != nil {
		if b.SkipActuation {
			return
		}
		if b.OnOutput != nil {
			mutated, delay, send := b.OnOutput(rec, logical)
			if !send {
				return
			}
			rec = mutated
			if delay > 0 {
				// The value may be scratch the next task overwrites.
				at, value := n.cfg.Kernel.Now()+delay, bytes.Clone(rec.Value)
				n.cfg.Kernel.After(delay, func() {
					if n.cfg.OnActuation != nil {
						n.cfg.OnActuation(n.id, logical, p, value, at)
					}
				})
				return
			}
		}
	}
	if n.cfg.OnActuation != nil {
		n.cfg.OnActuation(n.id, logical, p, rec.Value, n.cfg.Kernel.Now())
	}
}

// emit sends one record instance along edge e, applying the adversary's
// output hook if installed. An unchanged record goes out in the shared
// frame, sealed on first use; a record the hook changed is sealed for
// this edge alone.
func (n *Node) emit(cur *plan.Plan, rec evidence.Record, atts []sig.Envelope, e flow.Edge, shared *[]byte) {
	frame, own := shared, []byte(nil)
	var extraDelay sim.Time
	if b := n.behavior; b != nil && b.OnOutput != nil {
		mutated, delay, send := b.OnOutput(rec, e.To)
		if !send {
			return
		}
		extraDelay = delay
		if !evidence.SameSlot(mutated, rec) || evidence.Conflicts(mutated, rec) {
			// The adversary mutates the record but keeps the committed
			// attachments (a mismatched digest would be a bad-input proof
			// instead).
			rec, frame = mutated, &own
		}
	}
	if *frame == nil {
		*frame = sealFrame(n.cfg.Registry, n.id, rec, atts)
	}
	dst, payload := cur.Assign[e.To], *frame
	if extraDelay > 0 {
		n.cfg.Kernel.After(extraDelay, func() { n.deliver(dst, payload) })
		return
	}
	n.deliver(dst, payload)
}

// deliver hands a sealed data frame to the consumer's node: directly
// when it is this node, which reads it as it reads a received one, and
// as a foreground message otherwise.
func (n *Node) deliver(dst network.NodeID, payload []byte) {
	if dst == n.id {
		n.acceptRecord(payload)
		return
	}
	n.cfg.Net.Send(n.id, dst, network.ClassForeground, payload)
}

// onMessage is the network delivery handler.
func (n *Node) onMessage(m *network.Message) {
	if n.crashed {
		return
	}
	if len(m.Payload) == 0 {
		return
	}
	switch m.Payload[0] {
	case msgData:
		n.acceptRecord(m.Payload)
	case msgEvidence:
		n.onEvidenceMessage(m)
	case msgMember:
		n.onEpochFrame(m.Payload, m)
	}
}

// arrivalChunk is how many arrivals newArrival allocates at once.
const arrivalChunk = 32

// newArrival carves an arrival from the node's current chunk. Arrivals
// are never reused; an inbox period that is dropped releases its chunk
// once no other period references it.
func (n *Node) newArrival() *arrival {
	if len(n.arrivals) == 0 {
		n.arrivals = make([]arrival, arrivalChunk)
	}
	a := &n.arrivals[0]
	n.arrivals = n.arrivals[1:]
	return a
}

// take hands out the scratch slice in *slot, emptied, and leaves nil
// behind, so a nested user allocates its own instead of clobbering it.
func take[T any](slot *[]T) []T {
	s := (*slot)[:0]
	*slot = nil
	return s
}

// putBack returns scratch s to *slot, cleared so it pins nothing it held.
func putBack[T any](slot *[]T, s []T) {
	clear(s)
	*slot = s[:0]
}

// slotListChunk is how many inbox list entries newSlotList allocates at
// once.
const slotListChunk = 64

// newSlotList carves an empty inbox slot list of capacity c from the
// node's current chunk. The capacity is capped, so a list that outgrows
// it reallocates instead of running into its neighbour.
func (n *Node) newSlotList(c int) []*arrival {
	if len(n.slotLists) < c {
		n.slotLists = make([]*arrival, max(c, slotListChunk))
	}
	l := n.slotLists[:0:c]
	n.slotLists = n.slotLists[c:]
	return l
}

// replicasFeeding counts the replicas of logical producer that feed
// consumer: the most arrivals one inbox slot can hold.
func replicasFeeding(cur *plan.Plan, consumer, logical flow.TaskID) int {
	c := 0
	for _, e := range cur.Aug.Inputs(consumer) {
		if l, _ := plan.SplitReplica(e.From); l == logical {
			c++
		}
	}
	return c
}

// acceptRecord ingests a data frame (remote or local handoff), running
// the detector checks. The frame is parsed in place, and the arrival
// keeps the frame alive through its envelope.
func (n *Node) acceptRecord(payload []byte) {
	env, atts, err := parseDataPayload(payload)
	if err != nil {
		return // malformed frame: MAC-level noise, drop
	}
	if !n.cfg.Registry.Check(env) {
		n.observe(Event{Kind: RecordRejected, Accused: env.Signer, Reason: "bad signature"})
		return // unsigned garbage: drop
	}
	if n.faults.Contains(env.Signer) {
		n.observe(Event{Kind: RecordRejected, Accused: env.Signer, Reason: "convicted signer"})
		return // isolate convicted nodes: their records are ignored
	}
	// The record is kept no longer than env, whose frame is read-only:
	// parse it in place.
	rec, err := evidence.ParseRecord(env.Body)
	if err != nil || rec.Node != env.Signer {
		n.observe(Event{Kind: RecordRejected, Accused: env.Signer, Reason: "malformed record"})
		return
	}
	cur := n.cur
	// Find the consumer for this record on this node: the edge whose
	// producer is rec.Producer and whose consumer is assigned here.
	var cbuf [4]flow.TaskID
	consumers := cbuf[:0]
	for _, e := range cur.Aug.Outputs(rec.Producer) {
		if cur.Assign[e.To] == n.id {
			consumers = append(consumers, e.To)
		}
	}
	if len(consumers) == 0 {
		n.observe(Event{Kind: RecordRejected, Accused: env.Signer, Task: rec.Producer, Period: rec.Period, Reason: "no consumer in current mode"})
		return // stale record from a previous mode
	}
	a := n.newArrival()
	*a = arrival{env: env, rec: rec, atts: atts, at: n.cfg.Kernel.Now()}
	if !n.detectOnArrival(cur, a) {
		n.observe(Event{Kind: RecordRejected, Accused: env.Signer, Task: rec.Producer, Period: rec.Period, Reason: "failed arrival detector"})
		return // malformed (digest/attachment tampering): not an arrival
	}
	for _, c := range consumers {
		key := slotKey{c, rec.Logical}
		per := n.inbox[rec.Period]
		if per == nil {
			per, n.spareInbox = n.spareInbox, nil
			if per == nil {
				per = map[slotKey][]*arrival{}
			}
			n.inbox[rec.Period] = per
		}
		// Dedup: one arrival per producer replica per consumer slot.
		arr, dup := per[key], false
		for _, prev := range arr {
			if prev.rec.Producer == a.rec.Producer {
				dup = true
				break
			}
		}
		if !dup {
			if arr == nil {
				arr = n.newSlotList(replicasFeeding(cur, c, rec.Logical))
			}
			per[key] = append(arr, a)
		}
		// The awaited record is here: disarm the edge's watchdog instead
		// of letting a dead watchdog fire later (checkArrived would only
		// have found the arrival and returned).
		wk := watchKey{rec.Period, rec.Producer, c}
		if h, ok := n.watchdogs[wk]; ok {
			n.cfg.Kernel.Cancel(h)
			delete(n.watchdogs, wk)
		}
	}
}
