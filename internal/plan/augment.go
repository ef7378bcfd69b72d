package plan

import (
	"strconv"
	"strings"

	"btr/internal/flow"
	"btr/internal/sim"
)

// Replica naming: logical task "fc.law" yields replicas "fc.law#0",
// "fc.law#1", ... Checker tasks for sink S are the logical task "chk:S".

// ReplicaID builds the replica instance name.
func ReplicaID(logical flow.TaskID, idx int) flow.TaskID {
	return flow.TaskID(string(logical) + "#" + strconv.Itoa(idx))
}

// CheckerID builds the checker logical-task name for sink s.
func CheckerID(s flow.TaskID) flow.TaskID { return flow.TaskID("chk:" + string(s)) }

// SplitReplica parses a replica instance name into (logical, index).
// Non-replica names return (id, -1).
func SplitReplica(id flow.TaskID) (flow.TaskID, int) {
	s := string(id)
	i := strings.LastIndexByte(s, '#')
	if i < 0 {
		return id, -1
	}
	idx, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return id, -1
	}
	return flow.TaskID(s[:i]), idx
}

// IsChecker reports whether the logical task is a checker.
func IsChecker(logical flow.TaskID) bool { return strings.HasPrefix(string(logical), "chk:") }

// Wire-size model: the runtime wraps every dataflow value in a signed
// Record and attaches the producer's committed input envelopes (one per
// logical input), so consumers and checkers can re-execute. These
// constants are deliberate over-estimates so planned link windows always
// cover actual transmissions.
const (
	recordOverhead   = 96 // ids, period, offset, digest
	envelopeOverhead = 96 // signer, framing, ed25519 signature
	checkerMsgBytes  = 48 // sink replicas forward only value+digest to checkers
)

// WireBytes returns the on-the-wire payload size for an edge whose
// producer has the given logical inputs (each attached as an envelope).
func WireBytes(valueBytes int64, producerInputs []flow.Edge) int64 {
	size := valueBytes + recordOverhead + envelopeOverhead
	for _, in := range producerInputs {
		size += in.Bytes + recordOverhead + 2*envelopeOverhead
	}
	return size
}

// AugmentOptions tunes graph augmentation.
type AugmentOptions struct {
	// F is the fault bound; non-source tasks get F+1 replicas.
	F int
	// SourceReplicas overrides the replica count for sources; 0 means the
	// default 2F+1 (sensor disagreement cannot be re-executed, so
	// majority voting among sources needs 2F+1; see README.md, "The
	// recovery bound").
	SourceReplicas int
	// CheckerWCET is the execution budget for checker tasks.
	CheckerWCET sim.Time
}

// DefaultAugment returns augmentation defaults for the given fault bound.
func DefaultAugment(f int) AugmentOptions {
	return AugmentOptions{F: f, CheckerWCET: 300 * sim.Microsecond}
}

// Augment builds the runtime graph for one mode: every logical task is
// replicated, every logical edge becomes a full bipartite bundle between
// producer and consumer replicas (consumers take the first arrival and
// compare the rest — detection, not masking), and each logical sink gains
// replicated checker tasks that audit the sink replicas' actuation
// commands (a sink's output goes to the physical world, so no downstream
// consumer would otherwise see it).
//
// The returned graph's edge byte counts use the wire-size model above, so
// scheduling accounts for the accountability overhead — "there are no
// extra resources for BTR" (§4.1).
func Augment(g *flow.Graph, o AugmentOptions) *flow.Graph {
	if o.F < 0 {
		panic("plan: negative fault bound")
	}
	srcReps := o.SourceReplicas
	if srcReps == 0 {
		srcReps = 2*o.F + 1
	}
	nonSrcReps := o.F + 1
	reps := func(t *flow.Task) int {
		if t.Source {
			return srcReps
		}
		return nonSrcReps
	}

	a := flow.NewGraph(g.Name+"+btr", g.Period)
	// Replicate workload tasks, naming each replica once: names[g.Index(id)]
	// lists id's replica IDs for the edge bundles below. The first
	// nonSrcReps replicas of a sink feed the checkers below, so they are
	// no sinks of the augmented graph; the runtime keeps actuating
	// semantics via the logical graph. The checker replicas are the
	// augmented graph's sinks.
	ids := g.TaskIDs()
	names := make([][]flow.TaskID, len(ids))
	all := make([]flow.TaskID, 0, max(srcReps, nonSrcReps)*len(ids))
	for k, id := range ids {
		t, from := g.Tasks[id], len(all)
		for i := 0; i < reps(t); i++ {
			rt := *t
			rt.ID = ReplicaID(id, i)
			if rt.Sink && i < nonSrcReps {
				rt.Sink, rt.Deadline = false, 0
			}
			a.AddTask(rt)
			all = append(all, rt.ID)
		}
		names[k] = all[from:]
	}
	// Edge bundles.
	for _, e := range g.Edges {
		bytes := WireBytes(e.Bytes, g.Inputs(e.From))
		for _, from := range names[g.Index(e.From)] {
			for _, to := range names[g.Index(e.To)] {
				a.Connect(from, to, bytes)
			}
		}
	}
	// Checker logical tasks for each sink, replicated like non-sources,
	// and the sink -> checker audit edges.
	chk := make([]flow.TaskID, nonSrcReps)
	for _, s := range g.Sinks() {
		for i := range chk {
			chk[i] = ReplicaID(CheckerID(s), i)
			a.AddTask(flow.Task{
				ID:         chk[i],
				WCET:       o.CheckerWCET,
				Crit:       g.Tasks[s].Crit,
				StateBytes: 64,
				Sink:       true,
				Deadline:   g.Period,
			})
		}
		bytes := WireBytes(checkerMsgBytes, g.Inputs(s))
		for _, from := range names[g.Index(s)][:nonSrcReps] {
			for _, to := range chk {
				a.Connect(from, to, bytes)
			}
		}
	}
	return a
}
