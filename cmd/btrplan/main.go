// Command btrplan runs the offline planner on a chosen workload/topology
// and prints the strategy: one plan per fault pattern, shed sets, derived
// timing bounds, and transition costs. Usage:
//
//	btrplan [-workload avionics|chain|forkjoin|controlloop] [-nodes 6]
//	        [-topo mesh|ring|line|star|dualbus] [-f 1] [-r 500ms]
//	        [-speed 1.0] [-verbose]
//	        [-cache] [-precompute] [-stats]
//
// -cache plans through the incremental engine (internal/plan/cache):
// fault sets are canonicalized up to topology symmetry and solved plans
// are memoized, so only one synthesis runs per symmetry orbit.
// -precompute warms the cache with the full fault-set lattice first and
// reports cold vs. warm strategy-assembly latency. -stats prints the
// engine's cache counters as JSON.
//
// It exits 1 when planning fails and 2 on a bad flag; an unknown
// -workload or -topo lists the valid choices.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"btr/internal/cliflag"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/plan/cache"
	"btr/internal/sim"
)

const period = 25 * sim.Millisecond

var (
	workloads = map[string]func() *flow.Graph{
		"avionics":    func() *flow.Graph { return flow.Avionics(period) },
		"chain":       func() *flow.Graph { return flow.Chain(3, period, sim.Millisecond, 64, flow.CritA) },
		"forkjoin":    func() *flow.Graph { return flow.ForkJoin(3, period, sim.Millisecond, 64, flow.CritB) },
		"controlloop": func() *flow.Graph { return flow.ControlLoop(50*sim.Millisecond, flow.CritA) },
	}
	topologies = map[string]func(n int, bw int64, prop sim.Time) *network.Topology{
		"mesh": network.FullMesh, "ring": network.Ring, "line": network.Line,
		"star": network.Star, "dualbus": network.DualBus,
	}
)

// names returns m's keys, sorted.
func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main minus os.Exit: 0 on success, 1 when planning fails, 2 on
// a bad flag (an unknown -workload or -topo lists the valid choices).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("btrplan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "avionics", "workload: "+strings.Join(names(workloads), "|"))
	nodes := fs.Int("nodes", 6, "number of nodes")
	topoKind := fs.String("topo", "mesh", "topology: "+strings.Join(names(topologies), "|"))
	f := fs.Int("f", 1, "fault bound")
	r := fs.Duration("r", 500*time.Millisecond, "requested recovery bound")
	speed := fs.Float64("speed", 1.0, "CPU speed factor")
	verbose := fs.Bool("verbose", false, "print per-mode schedules")
	useCache := fs.Bool("cache", false, "plan through the incremental engine (symmetry-canonicalized plan cache)")
	precompute := fs.Bool("precompute", false, "with -cache: warm the cache with every fault set first, report cold vs warm latency")
	stats := fs.Bool("stats", false, "with -cache: print cache statistics as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "btrplan: %v\n", err)
		return code
	}
	if err := cliflag.OneOf("workload", *workload, names(workloads)); err != nil {
		return fail(2, err)
	}
	if err := cliflag.OneOf("topo", *topoKind, names(topologies)); err != nil {
		return fail(2, err)
	}
	g := workloads[*workload]()
	topo := topologies[*topoKind](*nodes, 20_000_000, 50*sim.Microsecond)

	opts := plan.DefaultOptions(*f, sim.Time(r.Microseconds()))
	opts.Sched.Speed = *speed

	var s *plan.Strategy
	var err error
	var eng *cache.Engine
	start := time.Now()
	if *useCache {
		eng = cache.NewEngine(g, topo, opts, nil)
		if *precompute {
			n, perr := eng.Precompute()
			if perr != nil {
				return fail(1, fmt.Errorf("precompute: %v", perr))
			}
			cold := time.Since(start)
			warmStart := time.Now()
			s, err = eng.BuildStrategy()
			if err == nil {
				fmt.Fprintf(stdout, "precomputed %d fault sets in %v; warm assembly %v (%.1fx)\n",
					n, cold, time.Since(warmStart), float64(cold)/float64(time.Since(warmStart)))
			}
		} else {
			s, err = eng.BuildStrategy()
		}
	} else {
		s, err = plan.Build(g, topo, opts)
	}
	if err != nil {
		return fail(1, err)
	}
	fmt.Fprintf(stdout, "planned %q on %d-node %s in %v\n\n", g.Name, *nodes, *topoKind, time.Since(start))
	fmt.Fprint(stdout, s.Summary())
	if eng != nil && *stats {
		b, _ := json.MarshalIndent(eng.Stats(), "", "  ")
		fmt.Fprintf(stdout, "\ncache stats: %s\n", b)
	}

	fmt.Fprintln(stdout, "\ntransitions (worst-case per successor mode):")
	keys := make([]string, 0, len(s.Trans))
	for k := range s.Trans {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int {
		if len(a) != len(b) {
			return cmp.Compare(len(a), len(b))
		}
		return strings.Compare(a, b)
	})
	for _, k := range keys {
		tr := s.Trans[k]
		fmt.Fprintf(stdout, "  -> {%s}: from {%s}, %d replicas move, %dB state, bound %v\n",
			tr.To, tr.From, len(tr.Moved), tr.StateBytes, tr.Bound)
	}

	if *verbose {
		fmt.Fprintln(stdout, "\nper-mode schedules:")
		for _, k := range append([]string{""}, keys...) {
			p := s.Plans[k]
			fmt.Fprintf(stdout, "  mode %v:\n", p.Faults)
			var ns []network.NodeID
			for n := range p.Table.Slots {
				ns = append(ns, n)
			}
			slices.Sort(ns)
			for _, n := range ns {
				fmt.Fprintf(stdout, "    node %d:", n)
				for _, slot := range p.Table.Slots[n] {
					fmt.Fprintf(stdout, " %s[%v,%v)", slot.Task, slot.Start, slot.End)
				}
				fmt.Fprintln(stdout)
			}
		}
	}
	return 0
}
