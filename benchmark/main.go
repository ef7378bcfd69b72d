// Command benchmark is the repository's benchmark: four workloads over
// the campaign runner, the live deployment and the client register
// service, end-to-end metrics measured untraced, and a per-layer ledger
// measured from outside in a traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(h *harness)
}

var workloads = []workload{
	{"sim_campaign", simCampaign},
	{"live_recovery", liveRecovery},
	{"client_closed", clientClosed},
	{"client_open_kill", clientOpenKill},
}

// runWorkload runs one workload once and checks that it left no
// goroutine behind.
func runWorkload(w workload, seed uint64, seconds float64, short, oneSetup bool, rec *recorder) *harness {
	h := newHarness(w.name, seed, seconds, short, oneSetup, rec)
	base := runtime.NumGoroutine()
	h.probe()
	w.run(h)
	h.awaitGoroutines(base)
	h.probe()
	return h
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: sim_campaign, live_recovery, client_closed, client_open_kill or all")
		seed    = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", runSeconds, "length of each workload's measured phase")
		trace   = flag.Int("trace", 0, "1: run traced and report the per-layer metrics; 0: run untraced and report the end-to-end metrics")
		short   = flag.Bool("short", false, "smoke size: one 0.3 s segment per workload, a handful of probe iterations")
		out     = flag.String("out", "out/result.json", "where to write the results as JSON")
		compare = flag.Bool("compare", false, "compare two result sets (files or directories of result files) given as arguments")
		print   = flag.Bool("manifest", false, "print BENCHMARK.json as spec.go defines it")
	)
	flag.Parse()
	if *print {
		os.Stdout.Write(manifest())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *short {
		*seconds = 0.3
	}
	os.Exit(run(os.Stdout, *name, *seed, *seconds, *trace == 1, *short, *out))
}

// run executes the selected workloads and returns the exit code: 0 only
// if every correctness check passed.
func run(w io.Writer, name string, seed uint64, seconds float64, trace, short bool, out string) int {
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	fmt.Fprintf(w, "benchmark: seed %d, %.1f s per workload, GOMAXPROCS %d, trace %v\n", seed, seconds, procs, trace)

	var selected []workload
	for _, wl := range workloads {
		if name == "all" || name == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	var rec *recorder
	specs := endToEndSpec
	if trace {
		rec, specs = newRecorder(), perLayerSpec
	}
	results := map[string]result{}
	code := 0
	for _, wl := range selected {
		var r result
		if trace {
			r = runTraced(wl, seed, seconds, short, rec)
		} else {
			r = runWorkload(wl, seed, seconds, short, false, nil).endToEnd()
		}
		printResult(w, wl.name, r)
		if !r.Correct {
			code = 1
		}
		results[wl.name] = r
	}
	err := writeResults(out, seed, procs, results)
	if err == nil && trace {
		err = rec.write(filepath.Join(filepath.Dir(out), "trace.jsonl"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if code != 0 {
		return code // no result line: nobody may read numbers from a failed run
	}
	if name == "all" {
		lines := map[string]json.RawMessage{}
		for n, r := range results {
			lines[n] = json.RawMessage(r.line(specs))
		}
		b, _ := json.Marshal(lines) // cannot fail: every value is valid JSON already
		fmt.Fprintln(w, string(b))
	} else {
		fmt.Fprintln(w, results[name].line(specs))
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printResult(w io.Writer, name string, r result) {
	for _, n := range sortedKeys(r.Metrics) {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-18s %-40s %16.6g %s\n", name, n, m.Value, m.Unit)
	}
	for _, n := range sortedKeys(r.self) {
		fmt.Fprintf(w, "%-18s %-40s %16.6g s (self time of the spans of this name)\n", name, "self."+n, r.self[n])
	}
	if r.probeMs > 0 {
		fmt.Fprintf(w, "%-18s host probe %.2f ms\n", name, r.probeMs)
	}
	fmt.Fprintf(w, "%-18s attempted %d, failed %d, correct %v\n", name, r.Attempted, r.Failed, r.Correct)
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-18s NOTE: %s\n", name, n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "%-18s FAIL: %s\n", name, e)
	}
}

// resultFile is what -out holds and -compare reads.
type resultFile struct {
	Seed       uint64                `json:"seed"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Workloads  map[string]fileResult `json:"workloads"`
}

// fileResult is a result with what the result line may not carry.
type fileResult struct {
	result
	HostProbeMs float64  `json:"host_probe_ms,omitempty"`
	Notes       []string `json:"notes,omitempty"`
	Errors      []string `json:"errors,omitempty"`
}

func writeResults(path string, seed uint64, procs int, results map[string]result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	rf := resultFile{seed, procs, map[string]fileResult{}}
	for name, r := range results {
		rf.Workloads[name] = fileResult{r, r.probeMs, r.notes, r.errs}
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
