// Package runtime implements BTR's online components (§4.2–§4.4): the
// per-node executive that runs the current plan's static schedule, the
// fault detector (replica comparison, re-execution audit, arrival
// watchdogs), the evidence distributor (validate-then-forward flooding on
// the reserved bandwidth share, with endorsement so bogus evidence counts
// against its sender), and the mode switcher (append-only fault set, plan
// lookup, coordinated activation at a deterministic time — no agreement
// protocol needed).
//
// Byzantine behavior is injected via Behavior hooks installed on
// compromised nodes: the adversary controls what those nodes send and
// when, but not other nodes' keys.
package runtime

import (
	"encoding/binary"
	"fmt"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sig"
	"btr/internal/sim"
)

// TaskFunc computes a non-source task's output value from its chosen
// inputs, appends it to dst and returns the extended slice. It must be
// deterministic: detection relies on re-execution. It must not retain
// dst or inputs past the call: the runtime computes into per-node
// scratch it reuses for the next task or audit (a task's own value is
// copied into its sealed frame, an audit's is only compared), and inputs
// alias received payloads.
type TaskFunc func(dst []byte, task flow.TaskID, period uint64, inputs []evidence.Record) []byte

// SourceFunc samples the environment for a source task, appends the
// sample to dst and returns the extended slice; like a TaskFunc it must
// not retain dst. All replicas of a source observe the same value for
// the same period (sample-and-hold at the period boundary, standard in
// digital control).
type SourceFunc func(dst []byte, task flow.TaskID, period uint64) []byte

// ActuationFunc observes a sink replica delivering its command to the
// physical world. The monitor (and any physical plant) subscribes here;
// BTR semantics: the plant acts on the first command per (sink, period).
// value is the node's scratch, valid only during the call: an observer
// that keeps it keeps a copy.
type ActuationFunc func(node network.NodeID, sink flow.TaskID, period uint64, value []byte, at sim.Time)

// Behavior is the adversary's hook on a compromised node. Fields are
// optional; zero value = correct behavior (useful for "compromised but
// currently dormant" nodes).
type Behavior struct {
	// OnOutput intercepts each outgoing record (per consumer replica).
	// Return the possibly-mutated record, an extra send delay, and false
	// to suppress the send entirely.
	OnOutput func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool)
	// SuppressDetection stops the node from reporting faults it observes.
	SuppressDetection bool
	// SuppressForwarding stops the node from forwarding evidence.
	SuppressForwarding bool
	// BogusEvidencePerPeriod floods this many invalid evidence blobs per
	// period to every neighbor (the §4.3 DoS attack).
	BogusEvidencePerPeriod int
	// SuppressEpochAcks stops the node from acknowledging membership
	// epoch prepares (a Byzantine node trying to stall reconfiguration;
	// the n-f quorum tolerates up to f of these).
	SuppressEpochAcks bool
	// SkipActuation suppresses the node's sink replicas' actuations.
	SkipActuation bool
}

// Config assembles a runtime system.
//
// Kernel and Net are seams, not concrete engines: any sim.Scheduler
// (discrete-event kernel or wall-clock WallScheduler) and any
// network.Transport (simulated Network or real-socket TCPBus) work, and
// the runtime behaves identically on either — that is the
// transport-agnostic contract internal/live and cmd/btrlive build on.
//
// The runtime leans on exactly two delivery guarantees from Net, both
// part of the Transport contract (asserted per implementation by
// TestTransportFIFOPerLink): handlers run serially with scheduler
// callbacks — node state is entirely lock-free on that strength — and
// per-(link, class) FIFO, so a slot output for period p enqueued before
// one for p+1 on the same adjacency can never arrive behind it and
// trip the later period's watchdog spuriously. No cross-link, cross-
// direction, or cross-class ordering is assumed anywhere.
type Config struct {
	Kernel   sim.Scheduler
	Net      network.Transport
	Registry *sig.Registry
	// Strategy maps every fault set to its plan (Strategy.PlanFor) and
	// carries the derived timing constants (Delta, period, watchdog
	// margin).
	Strategy *plan.Strategy

	Compute TaskFunc   // default: evidence.AppendHashCompute
	Source  SourceFunc // default: evidence.AppendSourceValue

	OnActuation ActuationFunc
	// Observer, if set, receives every Event: accepted evidence, mode
	// switches, epoch steps, expired watchdogs and rejected records.
	Observer func(Event)

	// EvidenceRateLimit caps evidence messages processed per neighbor per
	// period (DoS bound). 0 means the default of 16.
	EvidenceRateLimit int

	// ForgiveAfter, when non-zero, puts every conviction on a clock: a
	// convicted node is paroled — removed from the local fault set, with
	// the plan re-activated — at the first period boundary at least
	// ForgiveAfter past the conviction's DetectedAt. This opens the
	// high-fault-rate regime (faults arriving continuously at rate λ)
	// where the fault set must be able to shrink again; each node flags
	// the capacity crossings with signed over-budget / reconciled
	// verdicts on the evidence share. 0 keeps the classic §4.4
	// append-only fault set, byte for byte.
	ForgiveAfter sim.Time

	// Epochs enables online membership reconfiguration (see epoch.go).
	// When set, Strategy must be the genesis epoch's.
	Epochs *EpochConfig
}

// System is the collection of BTR nodes driving one simulation.
type System struct {
	cfg   Config
	nodes []*Node
	// op drives membership reconfigurations (nil without Config.Epochs).
	op *operator
}

// New builds the per-node runtimes and registers network handlers. Call
// Start to schedule the first period.
func New(cfg Config) *System {
	if cfg.Compute == nil {
		cfg.Compute = evidence.AppendHashCompute
	}
	if cfg.Source == nil {
		cfg.Source = evidence.AppendSourceValue
	}
	if cfg.EvidenceRateLimit == 0 {
		cfg.EvidenceRateLimit = 16
	}
	s := &System{cfg: cfg}
	n := cfg.Net.Topology().N
	for id := 0; id < n; id++ {
		s.nodes = append(s.nodes, newNode(network.NodeID(id), &cfg))
	}
	for _, nd := range s.nodes {
		nd.sys = s
		cfg.Net.Handle(nd.id, nd.onMessage)
	}
	if cfg.Epochs != nil {
		s.initEpochs()
	}
	return s
}

// Node returns the runtime for node id.
func (s *System) Node(id network.NodeID) *Node { return s.nodes[int(id)] }

// Start schedules every node's first period at t=0.
func (s *System) Start() {
	for _, nd := range s.nodes {
		nd.start()
	}
}

// StartNodeFrom schedules node id's period chain starting at period p
// instead of 0 — how a killed-and-restarted process rejoins a running
// cluster: the orchestrator picks a future period, the fresh process
// aligns its wall clock to the cluster's origin (sim.WallScheduler
// StartAt) and begins executing at that period boundary. Periods before
// p never ran locally, which is correct — their outputs were (or were
// not) produced by the pre-kill incarnation, and peers' evidence
// machinery already adjudicated them.
func (s *System) StartNodeFrom(id network.NodeID, p uint64) {
	s.nodes[int(id)].schedulePeriod(p)
}

// SetBehavior installs (or clears, with nil) a Byzantine behavior.
func (s *System) SetBehavior(id network.NodeID, b *Behavior) {
	s.nodes[int(id)].behavior = b
}

// Crash marks the node as crashed: it stops executing and the network
// drops its traffic.
func (s *System) Crash(id network.NodeID) {
	s.nodes[int(id)].crashed = true
	s.cfg.Net.SetDown(id, true)
}

// Restart clears a crash: the network carries the node's traffic again
// and its period chain resumes at the next strictly-future period
// boundary — the simulated analogue of the orchestrator's kill-restart
// path (StartNodeFrom) without the process boundary. The node keeps its
// pre-crash fault set (paroles kept firing while it was down, so the set
// matches what every other correct node holds) and re-activates the plan
// for it immediately.
func (s *System) Restart(id network.NodeID) {
	nd := s.nodes[int(id)]
	if !nd.crashed {
		return
	}
	nd.crashed = false
	s.cfg.Net.SetDown(id, false)
	nd.activate()
	if nd.chainArmed {
		return // crashed and restarted within one period: chain still live
	}
	nd.schedulePeriod(uint64(s.cfg.Kernel.Now()/nd.strat.Base.Period) + 1)
}

// FaultSetOf returns node id's current local fault set (for tests).
func (s *System) FaultSetOf(id network.NodeID) plan.FaultSet {
	return s.nodes[int(id)].faults
}

// Converged reports whether all correct (non-crashed, non-compromised per
// the caller's knowledge) *active-member* nodes run the plan for the
// same fault set. Callers pass the ground-truth faulty set to exclude;
// dormant and retired slots are skipped — they execute nothing.
func (s *System) Converged(exclude plan.FaultSet) (string, bool) {
	key := ""
	first := true
	for _, nd := range s.nodes {
		if nd.crashed || !nd.memberNow || exclude.Contains(nd.id) {
			continue
		}
		if first {
			key, first = nd.cur.Key(), false
			continue
		}
		if nd.cur.Key() != key {
			return "", false
		}
	}
	return key, true
}

// msgKind tags the first byte of every payload.
const (
	msgData     = 'D'
	msgEvidence = 'E'
	msgMember   = 'M'
)

// sealFrame signs rec as signer and frames it with its attachments in
// one exact-size allocation: kind byte, envelope length, record envelope
// (encoded and sealed in place), attached input envelopes.
func sealFrame(reg *sig.Registry, signer network.NodeID, rec evidence.Record, atts []sig.Envelope) []byte {
	n := rec.EncodedSize()
	frame := make([]byte, 0, 1+4+sig.EnvelopeSize(n)+evidence.EnvelopesSize(atts))
	frame = binary.LittleEndian.AppendUint32(append(frame, msgData), uint32(sig.EnvelopeSize(n)))
	_, frame = reg.SignAppended(rec.AppendTo(sig.AppendEnvelopeHeader(frame, signer, n)), 5)
	return evidence.AppendEnvelopes(frame, atts)
}

// parseDataPayload reverses sealFrame. It parses in place: the record
// envelope and the attachment list view alias b, which no one may modify
// once sent (network.Transport.Send), so a received record costs no copy
// and no allocation.
func parseDataPayload(b []byte) (sig.Envelope, evidence.EnvelopeList, error) {
	if len(b) < 5 || b[0] != msgData {
		return sig.Envelope{}, evidence.EnvelopeList{}, fmt.Errorf("runtime: bad data frame")
	}
	n := int(b[1]) | int(b[2])<<8 | int(b[3])<<16 | int(b[4])<<24
	if n < 0 || len(b) < 5+n {
		return sig.Envelope{}, evidence.EnvelopeList{}, fmt.Errorf("runtime: truncated data frame")
	}
	env, err := sig.ParseEnvelope(b[5 : 5+n])
	if err != nil {
		return sig.Envelope{}, evidence.EnvelopeList{}, err
	}
	atts, err := evidence.ParseEnvelopeList(b[5+n:])
	if err != nil {
		return sig.Envelope{}, evidence.EnvelopeList{}, err
	}
	return env, atts, nil
}

// parseEvidencePayload parses an evidence frame in place: the wrapper
// aliases b (see parseDataPayload).
func parseEvidencePayload(b []byte) (sig.Envelope, error) {
	if len(b) < 1 || b[0] != msgEvidence {
		return sig.Envelope{}, fmt.Errorf("runtime: bad evidence frame")
	}
	return sig.ParseEnvelope(b[1:])
}
