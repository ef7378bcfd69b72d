// Command btrcampaign runs fault-injection campaigns: every scenario
// (the paper reproductions E1–E10 and the campaign families C1–C11) fanned
// out over a deterministic worker pool. Aggregated tables are
// byte-identical for any -workers value. Usage:
//
//	btrcampaign [-workers N] [-trials N] [-seed N] [-quick] [-json]
//	            [-only E6] [-family campaign] [-list] [-v]
//	            [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// With -json, the full machine-readable result bundle (tables, per-trial
// status and timing, campaign metadata) is written to stdout.
// -cpuprofile/-memprofile write pprof profiles covering the campaign run
// (including the parallel worker path), for profiling perf work directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"btr/internal/campaign"
	"btr/internal/cliflag"
	"btr/internal/exp"
	"btr/internal/live"
	"btr/internal/prof"
)

// selectScenarios filters the scenario table by -only and -family. An
// unknown scenario ID or family name is an error carrying the valid
// choices (the shared internal/cliflag format every btr command uses) —
// a typo must fail loudly, not silently run nothing.
func selectScenarios(all []campaign.Scenario, only, family string) ([]campaign.Scenario, error) {
	families := map[string]bool{}
	ids := map[string]bool{}
	for _, sc := range all {
		families[sc.Family] = true
		ids[sc.ID] = true
	}
	if family != "" {
		if err := cliflag.OneOfSet("family", family, families); err != nil {
			return nil, err
		}
	}
	if only != "" {
		if err := cliflag.OneOfSet("only", only, ids); err != nil {
			return nil, err
		}
	}
	var selected []campaign.Scenario
	for _, sc := range all {
		if only != "" && sc.ID != only {
			continue
		}
		if family != "" && sc.Family != family {
			continue
		}
		selected = append(selected, sc)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no scenario matches -only=%q -family=%q", only, family)
	}
	return selected, nil
}

// campaignFlags holds every flag value btrcampaign parses.
type campaignFlags struct {
	workers, trials               *int
	seed                          *uint64
	quick, jsonOut, list, verbose *bool
	only, family                  *string
	prof                          *prof.Flags
}

// registerFlags registers the full btrcampaign flag set on fs. It is
// the single source of truth the README flags table is pinned against
// (TestReadmeFlagsTableMatches).
func registerFlags(fs *flag.FlagSet) *campaignFlags {
	return &campaignFlags{
		workers: fs.Int("workers", runtime.NumCPU(), "worker pool size (output is identical for any value)"),
		trials:  fs.Int("trials", 1, "Monte Carlo multiplier for randomized scenario families"),
		seed:    fs.Uint64("seed", 1, "campaign master seed (every trial seed is split from it)"),
		quick:   fs.Bool("quick", false, "smaller sweeps (for smoke runs)"),
		jsonOut: fs.Bool("json", false, "emit the machine-readable result bundle as JSON"),
		only:    fs.String("only", "", "run a single scenario (e.g. E6 or C1)"),
		family:  fs.String("family", "", "run one scenario family ("+strings.Join(families(exp.Scenarios()), " | ")+")"),
		list:    fs.Bool("list", false, "list scenarios and exit"),
		verbose: fs.Bool("v", false, "print per-trial progress to stderr"),
		prof:    prof.RegisterOn(fs),
	}
}

// families lists the scenario families of all in first-appearance order.
func families(all []campaign.Scenario) []string {
	var out []string
	seen := map[string]bool{}
	for _, sc := range all {
		if !seen[sc.Family] {
			seen[sc.Family] = true
			out = append(out, sc.Family)
		}
	}
	return out
}

func main() {
	// The C7 family re-executes this binary as node processes; the hook
	// turns those re-executions into deployment nodes instead of
	// recursive campaigns. No-op unless BTR_PROC_SPEC is set.
	live.MaybeRunNodeProc()

	cf := registerFlags(flag.CommandLine)
	workers, trials, seed := cf.workers, cf.trials, cf.seed
	quick, jsonOut, only := cf.quick, cf.jsonOut, cf.only
	family, list, verbose := cf.family, cf.list, cf.verbose
	profFlags := cf.prof
	flag.Parse()
	if *workers < 1 {
		*workers = 1
	}
	if *trials < 1 {
		*trials = 1
	}

	all := exp.Scenarios()
	if *list {
		for _, sc := range all {
			fmt.Printf("%-4s %-9s %s\n", sc.ID, sc.Family, sc.Claim)
		}
		return
	}

	selected, err := selectScenarios(all, *only, *family)
	if err != nil {
		fmt.Fprintf(os.Stderr, "btrcampaign: %v\n", err)
		os.Exit(2)
	}

	stopProf, err := profFlags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "btrcampaign: %v\n", err)
		os.Exit(2)
	}
	defer stopProf()

	opts := campaign.Options{
		Workers: *workers,
		Params:  campaign.Params{Seed: *seed, Quick: *quick, Trials: *trials},
	}
	if *verbose {
		opts.OnTrial = func(id string, tr campaign.TrialResult) {
			status := "ok"
			if tr.Err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "[%s] %-40s %-6s %8.1fms\n",
				id, tr.Name, status, float64(tr.Elapsed.Microseconds())/1000)
		}
	}

	start := time.Now()
	results := campaign.Run(selected, opts)
	wall := time.Since(start)

	failed := 0
	for _, r := range results {
		failed += r.Failed
	}
	if *jsonOut {
		if err := campaign.NewBundle(opts, wall, results).WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "btrcampaign: %v\n", err)
			stopProf()
			os.Exit(1)
		}
	} else {
		for _, r := range results {
			exp.WriteResult(os.Stdout, r)
		}
		fmt.Printf("campaign: %d scenario(s), %d worker(s), wall %v\n", len(results), *workers, wall.Round(time.Millisecond))
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "btrcampaign: %d trial(s) failed\n", failed)
		stopProf()
		os.Exit(1)
	}
}
