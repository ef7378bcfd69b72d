package runtime

import (
	"encoding/json"
	"strings"
	"testing"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/sim"
)

// TestEventJSONRoundTrip: every kind survives the JSON line form — the
// decoded event renders the same String as the original, and the line
// holds scalars only (the in-process Evidence stays behind).
func TestEventJSONRoundTrip(t *testing.T) {
	ms := sim.Millisecond
	cases := []Event{
		{Kind: EvidenceAccepted, Node: 2, At: 75*ms + 1, EvidenceKind: evidence.KindWrongOutput, Accused: 0, Reporter: 2,
			Evidence: evidence.Evidence{Kind: evidence.KindWrongOutput, Reporter: 2}},
		{Kind: EvidenceAccepted, Node: 4, At: 300 * ms, EvidenceKind: evidence.KindOverBudget, Accused: -1, Reporter: 3},
		{Kind: EvidenceAccepted, Node: 1, At: 90 * ms, EvidenceKind: evidence.KindPathAccusation, Accused: -1, Reporter: 1, Suspect: 4},
		{Kind: EvidenceAccepted, Node: 2, At: 91 * ms, EvidenceKind: evidence.KindPathAccusation, Accused: -1, Reporter: 2, Suspect: 0},
		{Kind: ModeSwitch, Node: 3, At: 99999, From: "", To: "{1}"},
		{Kind: EpochProposed, Node: -1, At: 75 * ms, Epoch: 1},
		{Kind: EpochAck, Node: 5, At: 75 * ms, Epoch: 1, Acks: 3},
		{Kind: EpochCommitted, Node: -1, At: 75 * ms, Epoch: 1, Acks: 5},
		{Kind: EpochActivated, Node: -1, At: 124999, Epoch: 1, Members: "{0,1,2,3,4,5,6}", R: 103048},
		{Kind: EpochRejected, Node: -1, At: 350 * ms, Epoch: 2, Err: `member: epoch 2 unplannable: 3 replicas of "c0"`},
		{Kind: WatchdogExpired, Node: 1, At: 130 * ms, Accused: 4, Task: "c1#0", Period: 5, Reason: "accused the path"},
		{Kind: RecordRejected, Node: 0, At: 131 * ms, Accused: 4, Task: "c1#1", Period: 5, Reason: "no consumer in current mode"},
		{Kind: RecordRejected, Node: 0, At: 132 * ms, Accused: 3, Reason: "bad signature"},
	}
	seen := map[EventKind]bool{}
	for _, ev := range cases {
		seen[ev.Kind] = true
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("%v: %v", ev.Kind, err)
		}
		var fields map[string]any
		if err := json.Unmarshal(line, &fields); err != nil {
			t.Fatalf("%v: %s: %v", ev.Kind, line, err)
		}
		for name, v := range fields {
			switch v.(type) {
			case map[string]any, []any:
				t.Errorf("%v: field %q of %s is not a scalar", ev.Kind, name, line)
			}
		}
		var got Event
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("%v: decode %s: %v", ev.Kind, line, err)
		}
		if got.String() != ev.String() {
			t.Errorf("%v: round trip changed the event:\n%s\n%s\nvia %s", ev.Kind, ev.String(), got.String(), line)
		}
		if got.Suspect != ev.Suspect {
			t.Errorf("%v: suspect %d came back as %d via %s", ev.Kind, ev.Suspect, got.Suspect, line)
		}
	}
	for _, k := range []EventKind{EvidenceAccepted, ModeSwitch, EpochProposed, EpochAck, EpochCommitted,
		EpochActivated, EpochRejected, WatchdogExpired, RecordRejected} {
		if !seen[k] {
			t.Errorf("kind %v has no round-trip case", k)
		}
	}
}

// TestChainStreamDeterministic pins the event stream of a parole run:
// two staggered corrupt-everything faults against f=1 with ForgiveAfter
// set, so the stream carries proofs, over-budget and reconciled verdicts
// and parole switches. Rendered through Event.String, it is
// byte-identical across two runs.
func TestChainStreamDeterministic(t *testing.T) {
	render := func() string {
		h := chainHarness(t, 13)
		h.sys.Node(0).cfg.ForgiveAfter = 8 * h.strategy.Base.Period // every node shares one Config
		p := h.strategy.Base.Period
		corrupt := &Behavior{OnOutput: func(rec evidence.Record, _ flow.TaskID) (evidence.Record, sim.Time, bool) {
			rec.Value = append([]byte("corrupt:"), rec.Value...)
			return rec, 0, true
		}}
		v1, v2 := h.nodeOf("c1#0"), h.nodeOf("c1#1")
		h.k.At(5*p, func() { h.sys.SetBehavior(v1, corrupt) })
		h.k.At(7*p, func() { h.sys.SetBehavior(v2, corrupt) })
		h.k.At(10*p, func() { h.sys.SetBehavior(v1, nil); h.sys.SetBehavior(v2, nil) })
		h.run(40)
		kinds := map[evidence.Kind]int{}
		for _, ev := range h.evidences {
			kinds[ev.Kind]++
		}
		if kinds[evidence.KindWrongOutput] == 0 || kinds[evidence.KindOverBudget] == 0 || kinds[evidence.KindReconciled] == 0 {
			t.Fatalf("parole run lacks proofs or budget verdicts: %v", kinds)
		}
		var b strings.Builder
		for _, ev := range h.events {
			b.WriteString(ev.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("parole event stream differs across identical runs:\n%s\n---\n%s", a, b)
	}
}
