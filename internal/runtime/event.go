package runtime

import (
	"fmt"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sim"
)

// EventKind names one observable step of a node or of the epoch
// operator; the name is what String and the JSON form print.
type EventKind string

const (
	// EvidenceAccepted: a correct node accepted a piece of evidence (its
	// own or a neighbor's), before acting on it.
	EvidenceAccepted EventKind = "evidence"
	// ModeSwitch: a node activated the plan for a new fault set.
	ModeSwitch EventKind = "switch"
	// The epoch operator's reconfiguration steps (epoch.go).
	EpochProposed  EventKind = "epoch-proposed"
	EpochAck       EventKind = "epoch-ack"
	EpochCommitted EventKind = "epoch-committed"
	EpochActivated EventKind = "epoch-activated"
	EpochRejected  EventKind = "epoch-rejected"
	// WatchdogExpired: an arrival watchdog fired on a missing record.
	WatchdogExpired EventKind = "watchdog"
	// RecordRejected: a received data record was dropped before it
	// counted as an arrival.
	RecordRejected EventKind = "record-rejected"
)

// Event is one observable step: the single value every report, node
// process stream and log line is built from. Node and At say who and
// when (logical time, never the wall clock); the other fields are the
// step's causal IDs, set per kind. Every field but Evidence is a scalar,
// so an Event crosses a process boundary as one compact JSON object and
// its String is the same on both sides.
type Event struct {
	Kind EventKind      `json:"kind"`
	Node network.NodeID `json:"node"` // -1 for operator steps other than acks
	At   sim.Time       `json:"at_us"`

	// Evidence is the accepted evidence (in process only); EvidenceKind,
	// Accused and Reporter are its scalars. Accused is also the host of
	// the producer an expired watchdog waited for, and the signer of a
	// rejected record. A path accusation accuses no node (Accused -1):
	// Suspect is its path's first node, the host of the producer whose
	// record went missing or was outvoted.
	Evidence     evidence.Evidence `json:"-"`
	EvidenceKind evidence.Kind     `json:"evidence,omitempty"`
	Accused      network.NodeID    `json:"accused,omitempty"`
	Reporter     network.NodeID    `json:"reporter,omitempty"`
	Suspect      network.NodeID    `json:"suspect,omitempty"`

	Task   flow.TaskID `json:"task,omitempty"`   // watchdog, rejected record
	Period uint64      `json:"period,omitempty"` // watchdog, rejected record
	From   string      `json:"from,omitempty"`   // switch: the plan keys
	To     string      `json:"to,omitempty"`

	// Epoch steps: the record number; the distinct acknowledgments so
	// far (ack, commit); an activation's Members and recovery bound R; a
	// rejection's Err.
	Epoch   uint64   `json:"epoch,omitempty"`
	Acks    int      `json:"acks,omitempty"`
	Members string   `json:"members,omitempty"`
	R       sim.Time `json:"r_us,omitempty"`
	Err     string   `json:"err,omitempty"`

	Reason string `json:"reason,omitempty"` // watchdog outcome, rejection cause
}

// String renders the event in one deterministic line: the same run
// gives the same bytes.
func (e Event) String() string {
	head := fmt.Sprintf("%10v node %d %s", e.At, e.Node, e.Kind)
	switch e.Kind {
	case EvidenceAccepted:
		head = fmt.Sprintf("%s %s accused=%d reporter=%d", head, e.EvidenceKind, e.Accused, e.Reporter)
		if e.EvidenceKind == evidence.KindPathAccusation {
			head = fmt.Sprintf("%s suspect=%d", head, e.Suspect)
		}
		return head
	case ModeSwitch:
		return fmt.Sprintf("%s %q -> %q", head, e.From, e.To)
	case EpochProposed:
		return fmt.Sprintf("%s epoch=%d", head, e.Epoch)
	case EpochAck, EpochCommitted:
		return fmt.Sprintf("%s epoch=%d acks=%d", head, e.Epoch, e.Acks)
	case EpochActivated:
		return fmt.Sprintf("%s epoch=%d members=%s R=%v", head, e.Epoch, e.Members, e.R)
	case EpochRejected:
		return fmt.Sprintf("%s epoch=%d err=%q", head, e.Epoch, e.Err)
	case WatchdogExpired, RecordRejected:
		if e.Task != "" {
			head = fmt.Sprintf("%s %s period=%d", head, e.Task, e.Period)
		}
		return fmt.Sprintf("%s accused=%d: %s", head, e.Accused, e.Reason)
	}
	return head
}

// observe stamps ev with the current time and hands it to the
// observer, if any.
func (s *System) observe(ev Event) {
	if obs := s.cfg.Observer; obs != nil {
		ev.At = s.cfg.Kernel.Now()
		obs(ev)
	}
}

// observe reports ev as this node's.
func (n *Node) observe(ev Event) {
	ev.Node = n.id
	n.sys.observe(ev)
}
