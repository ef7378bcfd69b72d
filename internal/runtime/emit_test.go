package runtime

import (
	"testing"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sig"
	"btr/internal/sim"
)

// sendLog wraps the simulated network and records every data record a
// node hands it.
type sendLog struct {
	*network.Network
	sends []sentRecord
}

type sentRecord struct {
	rec     evidence.Record
	payload []byte
}

func (l *sendLog) Send(src, dst network.NodeID, class network.Class, payload []byte) bool {
	if env, _, err := parseDataPayload(payload); err == nil {
		if rec, err := evidence.ParseRecord(env.Body); err == nil {
			l.sends = append(l.sends, sentRecord{rec, payload})
		}
	}
	return l.Network.Send(src, dst, class, payload)
}

// byOutput groups the logged sends of one period by producing replica.
func (l *sendLog) byOutput(period uint64) map[flow.TaskID][]sentRecord {
	out := map[flow.TaskID][]sentRecord{}
	for _, s := range l.sends {
		if s.rec.Period == period {
			out[s.rec.Producer] = append(out[s.rec.Producer], s)
		}
	}
	return out
}

func sameArray(a, b []byte) bool { return &a[0] == &b[0] }

// TestEmitSealsOncePerTask pins that a correct task seals, encodes and
// frames its record once per period and sends that one payload on every
// remote output edge, while a record the adversary's OnOutput hook
// changes is sealed per edge and still convicts its producer.
func TestEmitSealsOncePerTask(t *testing.T) {
	g := flow.Avionics(25 * sim.Millisecond)
	var log *sendLog
	h := newHarnessOn(t, g, 6, 1, 7, func(nw *network.Network) network.Transport {
		log = &sendLog{Network: nw}
		return log
	})
	victim := h.nodeOf("gyro#0")
	const lie = "lie-to-fc"
	h.k.At(4*h.strategy.Base.Period-1, func() {
		h.sys.SetBehavior(victim, &Behavior{
			OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
				if logical, _ := plan.SplitReplica(consumer); rec.Producer == "gyro#0" && logical == "fc.filter" {
					rec.Value = []byte(lie)
				}
				return rec, 0, true
			},
		})
	})
	h.run(30)

	// Fault-free period: one payload array per producer replica.
	shared := 0
	for producer, sends := range log.byOutput(2) {
		for _, s := range sends[1:] {
			if !sameArray(s.payload, sends[0].payload) {
				t.Fatalf("period 2: %s sent %d payloads that are not one shared array", producer, len(sends))
			}
		}
		if len(sends) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("period 2: no replica sent on more than one remote edge; the check is vacuous")
	}

	// Attacked period: the lies are sealed edge by edge, the truth once.
	var lies, truths []sentRecord
	for _, s := range log.byOutput(4)["gyro#0"] {
		if string(s.rec.Value) == lie {
			lies = append(lies, s)
		} else {
			truths = append(truths, s)
		}
	}
	if len(lies) < 2 || len(truths) < 1 {
		t.Fatalf("period 4: gyro#0 sent %d mutated and %d true records remotely, want >= 2 and >= 1", len(lies), len(truths))
	}
	for i, a := range lies {
		for _, b := range truths {
			if sameArray(a.payload, b.payload) {
				t.Fatal("period 4: a mutated record shares the true record's payload")
			}
		}
		for _, b := range lies[i+1:] {
			if sameArray(a.payload, b.payload) {
				t.Fatal("period 4: two mutated edges share one seal")
			}
		}
	}
	for _, b := range truths[1:] {
		if !sameArray(b.payload, truths[0].payload) {
			t.Fatal("period 4: the unmutated edges do not share one payload")
		}
	}
	if key, ok := h.sys.Converged(plan.NewFaultSet(victim)); !ok || key != plan.NewFaultSet(victim).Key() {
		t.Fatalf("equivocating source not excluded: key=%q ok=%v", key, ok)
	}
}

// steadyStateAllocsPerPeriod pins the whole deployment's allocations per
// period in steady state: a fault-free chain of three on a full mesh of
// four, f = 1. It measures 17, with and without the race detector, since
// no sync.Pool is left on the record path (34 when attachments were
// parsed into slices and values computed into fresh ones); the pin keeps
// the 16 of headroom over the count it has always had.
const steadyStateAllocsPerPeriod = 33

func TestSteadyStateAllocsPerPeriod(t *testing.T) {
	h := newHarness(t, flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA), 4, 1, 3)
	h.sys.cfg.Registry.UseMemos(sig.NewVerifyMemo(), sig.NewSealMemo()) // independent of other tests
	period := h.strategy.Base.Period
	h.sys.Start()
	h.k.Run(10 * period) // warm up: inbox maps, pools
	allocs := testing.AllocsPerRun(40, func() { h.k.Run(h.k.Now() + period) })
	t.Logf("%.0f allocations per period", allocs)
	if len(h.evidences) != 0 {
		t.Fatalf("fault-free run raised %d pieces of evidence", len(h.evidences))
	}
	if allocs > steadyStateAllocsPerPeriod {
		t.Fatalf("%.0f allocations per period in steady state, pinned at %d", allocs, steadyStateAllocsPerPeriod)
	}
}

// dropLog wraps the simulated network; once dropping is set it counts
// the data frames handed to it and delivers none.
type dropLog struct {
	*network.Network
	dropping bool
	frames   int
}

func (l *dropLog) Send(src, dst network.NodeID, class network.Class, payload []byte) bool {
	if !l.dropping {
		return l.Network.Send(src, dst, class, payload)
	}
	l.frames++
	return true
}

// TestFinishTaskOneAllocationPerRecord pins a task's record path at one
// allocation, its sealed frame: the value is computed into the node's
// scratch, the chosen inputs' envelopes are gathered into scratch, and a
// colocated consumer reads the frame in place like a received one. Every
// slot of a warm fault-free chain runs again on its period's inbox with
// the sends dropped, so only the task's own work is counted; carving
// arrivals from chunks of 32 stays below AllocsPerRun's integer mean.
// Checker slots seal nothing and allocate nothing.
func TestFinishTaskOneAllocationPerRecord(t *testing.T) {
	var log *dropLog
	h := newHarnessOn(t, flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA), 4, 1, 3,
		func(nw *network.Network) network.Transport {
			log = &dropLog{Network: nw}
			return log
		})
	h.sys.cfg.Registry.UseMemos(sig.NewVerifyMemo(), sig.NewSealMemo()) // independent of other tests
	h.sys.Start()
	h.k.Run(10 * h.strategy.Base.Period)
	h.sys.Node(0).cfg.OnActuation = nil // the harness keeps a copy of every command
	log.dropping = true
	cur := h.strategy.Plans[""]
	kinds := map[string]int{}
	for id, slots := range cur.Table.Slots {
		n := h.sys.Node(network.NodeID(id))
		for _, slot := range slots {
			logical, _ := plan.SplitReplica(slot.Task)
			kind, want := "compute", 1.0
			switch {
			case plan.IsChecker(logical):
				kind, want = "checker", 0
			case cur.Pruned.Tasks[logical].Source:
				kind = "source"
			case cur.Pruned.Tasks[logical].Sink:
				kind = "sink"
			}
			kinds[kind]++
			if got := testing.AllocsPerRun(50, func() { n.finishTask(cur, 9, slot.Task) }); got != want {
				t.Errorf("%s slot %s on node %d allocates %.0f per run, want %.0f", kind, slot.Task, id, got, want)
			}
		}
	}
	if kinds["source"] == 0 || kinds["compute"] == 0 || kinds["sink"] == 0 || kinds["checker"] == 0 || log.frames == 0 {
		t.Fatalf("slots run %v, frames sent %d: the check is vacuous", kinds, log.frames)
	}
	if len(h.evidences) != 0 {
		t.Fatalf("re-running fault-free slots raised %d pieces of evidence", len(h.evidences))
	}
}
