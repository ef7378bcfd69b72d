package plan

import (
	"reflect"
	"sync"
	"testing"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sim"
)

// memoContext builds the standard chain deployment's planning context
// afresh on every call.
func memoContext() (*flow.Graph, *network.Topology, Options) {
	return flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA),
		network.FullMesh(4, 20_000_000, 50*sim.Microsecond),
		DefaultOptions(1, 500*sim.Millisecond)
}

// TestAppendKeyCoversEveryField perturbs every field of Options (the
// nested sched.Params included), flow.Task, flow.Edge and network.Link
// in turn, by reflection, and requires the key to change: a field added
// to any of them later fails here until AppendKey encodes it.
func TestAppendKeyCoversEveryField(t *testing.T) {
	g, topo, opts := memoContext()
	ref := string(AppendKey(nil, g, topo, opts))
	changes := func(what string) {
		t.Helper()
		if string(AppendKey(nil, g, topo, opts)) == ref {
			t.Errorf("key ignores %s", what)
		}
	}
	var perturb func(path string, v reflect.Value)
	perturb = func(path string, v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+"."+v.Type().Field(i).Name
			if f.Kind() == reflect.Struct {
				perturb(name, f)
				continue
			}
			old := reflect.New(f.Type()).Elem()
			old.Set(f)
			switch f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.String:
				f.SetString(f.String() + "x")
			default:
				t.Fatalf("%s: no perturbation for kind %v", name, f.Kind())
			}
			changes(name)
			f.Set(old)
		}
	}
	perturb("Options", reflect.ValueOf(&opts).Elem())
	for _, id := range g.TaskIDs() {
		perturb("Task "+string(id), reflect.ValueOf(g.Tasks[id]).Elem())
	}
	for i := range g.Edges {
		perturb("Edge", reflect.ValueOf(&g.Edges[i]).Elem())
	}
	perturb("Link", reflect.ValueOf(&topo.Links[len(topo.Links)-1]).Elem())

	g.Name += "x"
	changes("Graph.Name")
	g.Name = g.Name[:len(g.Name)-1]
	g.Period++
	changes("Graph.Period")
	g.Period--
	topo.N++
	changes("Topology.N")
	topo.N--
	if string(AppendKey(nil, g, topo, opts)) != ref {
		t.Fatal("restoring every field did not restore the key")
	}
}

// TestAppendKeyEqualForEqualContexts: contexts built separately, or with
// defaults left implicit, key alike.
func TestAppendKeyEqualForEqualContexts(t *testing.T) {
	g1, topo1, opts1 := memoContext()
	g2, topo2, opts2 := memoContext()
	if string(AppendKey(nil, g1, topo1, opts1)) != string(AppendKey(nil, g2, topo2, opts2)) {
		t.Error("separately built equal contexts key differently")
	}
	opts2.OmissionThreshold, opts2.CheckerWCET, opts2.WatchdogMargin = 0, 0, 0
	if string(AppendKey(nil, g1, topo1, opts1)) != string(AppendKey(nil, g2, topo2, opts2)) {
		t.Error("implicit and explicit option defaults key differently")
	}
}

// TestMemoHitAllocs pins a memo hit, key construction included, at one
// allocation or fewer.
func TestMemoHitAllocs(t *testing.T) {
	g, topo, opts := memoContext()
	m := NewMemo()
	if _, err := m.Build(g, topo, opts); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { m.Build(g, topo, opts) }); n > 1 {
		t.Errorf("memo hit = %.1f allocations, want <= 1", n)
	}
}

// TestMemoSharesOneStrategy: racing callers with separately built equal
// contexts get one strategy, the one plan.Build makes, and only read its
// graphs; an error is cached like a strategy; a nil memo builds afresh
// every call.
func TestMemoSharesOneStrategy(t *testing.T) {
	m := NewMemo()
	got := make([]*Strategy, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, topo, opts := memoContext()
			s, err := m.Build(g, topo, opts)
			if err != nil {
				t.Error(err)
			}
			got[i] = s
			// Read every lazily cached query: under -race this fails
			// unless Build filled them before sharing.
			for _, p := range s.Plans {
				for _, g := range []*flow.Graph{s.Base, p.Pruned, p.Aug} {
					g.TopoOrder()
					g.Sources()
					g.Sinks()
					g.OutputsAt(0)
				}
			}
		}(i)
	}
	wg.Wait()
	for _, s := range got[1:] {
		if s != got[0] {
			t.Fatal("equal contexts got different strategies")
		}
	}
	fresh, err := Build(memoContext())
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Summary() != got[0].Summary() {
		t.Error("shared strategy differs from a fresh Build")
	}

	g, topo, opts := memoContext()
	opts.F = -1
	_, err1 := m.Build(g, topo, opts)
	_, err2 := m.Build(g, topo, opts)
	if err1 == nil || err1 != err2 {
		t.Errorf("errors not cached: %v, %v", err1, err2)
	}

	var none *Memo
	a, _ := none.Build(memoContext())
	b, _ := none.Build(memoContext())
	if a == b {
		t.Error("nil memo shared a strategy")
	}
}
