package btr

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"btr/internal/campaign"
	"btr/internal/exp"
)

// The allocation ledger: every object the deterministic campaign
// families (the Makefile's PROFILE_FAMILIES, which are the sim_campaign
// benchmark's) allocate, per trial, charged to the internal package
// that allocates it. The rows sum to the total by construction, and each
// is checked against its budget in testdata/allocs.txt. An allocation
// change lowers the rows it moves in the same commit; `make
// profile-allocs` is the drill-down behind a row.

// ledgerBudgets is the committed budget file: one "layer objects/trial"
// line per row.
const ledgerBudgets = "testdata/allocs.txt"

// A row fails above budget + slack(budget). The slack is more than twice
// the spread measured over six runs: core, plant and sched moved by up
// to 2 objects per trial, every other row by under 0.5.
const (
	ledgerSlackFrac = 0.02 // of the budget
	ledgerSlackAbs  = 5.0  // objects per trial
)

func ledgerSlack(budget float64) float64 { return ledgerSlackFrac*budget + ledgerSlackAbs }

// ledgerOther is the row of objects with no btr/internal frame on their
// stack: the test harness, the runtime's own goroutines.
const ledgerOther = "(other)"

// TestAllocationLedger re-executes this test binary with
// GODEBUG=memprofilerate=1, so that the child records every allocation
// from its first instruction, and the child measures and checks the
// ledger. With -v the child's table is logged.
func TestAllocationLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the deterministic campaign families under memprofilerate=1 (~5 s)")
	}
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	if runtime.MemProfileRate != 1 {
		cmd := exec.Command(os.Args[0], "-test.run=^TestAllocationLedger$", "-test.v")
		cmd.Env = append(os.Environ(), "GODEBUG=memprofilerate=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("ledger child: %v\n%s", err, out)
		}
		t.Logf("ledger child:\n%s", out)
		return
	}

	families := profileFamilies(t)
	var scen []campaign.Scenario
	for _, sc := range exp.Scenarios() {
		if slices.Contains(families, sc.Family) {
			scen = append(scen, sc)
		}
	}
	// The collector is off while the campaign runs (it allocates about
	// 70 MB): a collection empties every sync.Pool, and which later calls
	// then refill theirs depends on when it ran. With it on, the sched
	// row, whose Build scratch is pooled, moved by 17 objects per trial
	// between runs.
	before := memProfile()
	gc := debug.SetGCPercent(-1)
	res := campaign.Run(scen, campaign.Options{Params: campaign.Params{Seed: 1, Quick: true}, Workers: 1})
	debug.SetGCPercent(gc)
	after := memProfile()
	trials := 0
	for _, r := range res {
		trials += len(r.Trials)
		if r.Failed > 0 {
			t.Errorf("%s: %d trials failed", r.ID, r.Failed)
		}
	}

	// The profile keeps one record per (stack, object size): sum each
	// stack's records before taking the difference.
	prior := byStack(before)
	objects := map[string]int64{}
	var total int64
	for stk, n := range byStack(after) {
		if n -= prior[stk]; n > 0 {
			r := runtime.MemProfileRecord{Stack0: stk}
			objects[layerOf(r.Stack())] += n
			total += n
		}
	}

	budgets := readBudgets(t, ledgerBudgets)
	layers := make([]string, 0, len(objects))
	for l := range objects {
		layers = append(layers, l)
	}
	for l := range budgets {
		if _, ok := objects[l]; !ok {
			layers = append(layers, l)
		}
	}
	slices.Sort(layers)
	var b strings.Builder
	fmt.Fprintf(&b, "%d trials of %v, seed 1, quick, one worker; objects per trial:\n", trials, families)
	for _, l := range layers {
		got := float64(objects[l]) / float64(trials)
		budget, ok := budgets[l]
		switch {
		case !ok:
			t.Errorf("layer %s: %.1f objects/trial and no budget row in %s", l, got, ledgerBudgets)
		case got > budget+ledgerSlack(budget):
			t.Errorf("layer %s: %.1f objects/trial, over its budget %.1f + slack %.1f", l, got, budget, ledgerSlack(budget))
		case got < budget-2*ledgerSlack(budget):
			t.Logf("layer %s: %.1f objects/trial, well under its budget %.1f: lower the row", l, got, budget)
		}
		fmt.Fprintf(&b, "%-12s %8.1f\n", l, got)
	}
	fmt.Fprintf(&b, "%-12s %8.1f\n", "total", float64(total)/float64(trials))
	t.Log(b.String())
}

// memProfile returns the cumulative allocation profile, complete up to
// now: the runtime publishes a cycle's allocations only once the next two
// garbage collections have run.
func memProfile() []runtime.MemProfileRecord {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs := make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			return recs[:n]
		}
	}
}

// byStack sums the allocated objects of each stack's records.
func byStack(recs []runtime.MemProfileRecord) map[[32]uintptr]int64 {
	m := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		m[r.Stack0] += r.AllocObjects
	}
	return m
}

// layerOf names the package of the innermost btr/internal frame of stack
// ("plan", "plan/cache", ...), or ledgerOther.
func layerOf(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	for {
		f, more := frames.Next()
		if rest, ok := strings.CutPrefix(f.Function, "btr/internal/"); ok {
			// Package paths hold no dots, so the first one ends the path.
			if i := strings.IndexByte(rest, '.'); i > 0 {
				return rest[:i]
			}
		}
		if !more {
			return ledgerOther
		}
	}
}

// readBudgets parses a budget file: one "row value" line per row, #
// comments allowed.
func readBudgets(t *testing.T, path string) map[string]float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	budgets := map[string]float64{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if len(fields) != 2 || err != nil {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		budgets[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return budgets
}

// The line ledger: the non-test Go lines of each package of the module
// (benchmark/, a module of its own, is not counted), checked against its
// row in testdata/lines.txt. A change that grows a package raises its row
// in the same commit and says why; one that shrinks it lowers the row.
const lineBudgets = "testdata/lines.txt"

// TestLineLedger fails when a package has more non-test lines than its
// row, or has no row; a row naming no package must go.
func TestLineLedger(t *testing.T) {
	fset, pkgs := moduleSources(t)
	budgets := readBudgets(t, lineBudgets)
	total := 0
	for _, pkg := range pkgs {
		lines := 0
		for _, f := range pkg.Files {
			lines += fset.File(f.FileStart).LineCount()
		}
		total += lines
		budget, ok := budgets[pkg.Dir]
		delete(budgets, pkg.Dir)
		switch {
		case !ok:
			t.Errorf("package %s: %d lines and no row in %s", pkg.Dir, lines, lineBudgets)
		case float64(lines) > budget:
			t.Errorf("package %s: %d lines, over its row %g", pkg.Dir, lines, budget)
		case float64(lines) < budget:
			t.Logf("package %s: %d lines, under its row %g: lower the row", pkg.Dir, lines, budget)
		}
	}
	for dir := range budgets {
		t.Errorf("%s: row %s names no package", lineBudgets, dir)
	}
	t.Logf("%d non-test lines in %d packages", total, len(pkgs))
}
