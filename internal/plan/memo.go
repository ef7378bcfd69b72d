package plan

import (
	"encoding/binary"
	"math"
	"sync"

	"btr/internal/flow"
	"btr/internal/network"
)

// Memo shares strategies between the deployments of one campaign run:
// Build returns one *Strategy per planning context (AppendKey), built
// once even when callers race for it, its error cached with it. A nil
// *Memo is plain Build.
type Memo struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}

type memoEntry struct {
	once sync.Once
	s    *Strategy
	err  error
}

// NewMemo returns an empty memo.
func NewMemo() *Memo { return &Memo{m: map[string]*memoEntry{}} }

// Build is plan.Build, run once per AppendKey context.
func (m *Memo) Build(base *flow.Graph, topo *network.Topology, opts Options) (*Strategy, error) {
	if m == nil {
		return Build(base, topo, opts)
	}
	var buf [2048]byte
	key := AppendKey(buf[:0], base, topo, opts)
	m.mu.Lock()
	e := m.m[string(key)]
	if e == nil {
		e = &memoEntry{}
		m.m[string(key)] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		if e.s, e.err = Build(base, topo, opts); e.err != nil {
			return
		}
		// Fill every graph's lazily cached queries before the strategy
		// is shared, so that its users only ever read them.
		for _, p := range e.s.Plans {
			for _, g := range [...]*flow.Graph{e.s.Base, p.Pruned, p.Aug} {
				g.TopoOrder()
				g.Sources()
				g.Sinks()
				g.OutputsAt(0) // and TaskIDs
			}
		}
	})
	return e.s, e.err
}

// AppendKey appends an exact binary encoding of everything Build reads —
// the workload (name, period, every task's fields in TaskIDs order, every
// edge in Edges order), the topology (N, every link) and the normalized
// options — to dst. Equal keys mean equal inputs, so equal strategies.
func AppendKey(dst []byte, base *flow.Graph, topo *network.Topology, opts Options) []byte {
	nums := func(vs ...int64) {
		for _, v := range vs {
			dst = binary.AppendVarint(dst, v)
		}
	}
	str := func(s string) {
		nums(int64(len(s)))
		dst = append(dst, s...)
	}
	str(base.Name)
	nums(int64(base.Period), int64(len(base.Tasks)))
	for _, id := range base.TaskIDs() {
		t := base.Tasks[id]
		str(string(t.ID))
		nums(int64(t.WCET), int64(t.Crit), t.StateBytes, b2i(t.Source), b2i(t.Sink), int64(t.Deadline))
	}
	nums(int64(len(base.Edges)))
	for _, e := range base.Edges {
		str(string(e.From))
		str(string(e.To))
		nums(e.Bytes)
	}
	nums(int64(topo.N), int64(len(topo.Links)))
	for _, l := range topo.Links {
		nums(int64(l.A), int64(l.B), l.Bandwidth, int64(l.Prop))
	}
	o := opts.Normalized()
	sp := o.Sched
	nums(int64(o.F), int64(o.R), int64(math.Float64bits(sp.Speed)), int64(sp.SignCost), int64(sp.VerifyCost),
		int64(sp.Class), int64(math.Float64bits(sp.EvidenceShare)), int64(o.SourceReplicas), int64(o.CheckerWCET),
		b2i(o.MinimalDiff), b2i(o.Locality), int64(o.OmissionThreshold), int64(o.WatchdogMargin))
	return dst
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
