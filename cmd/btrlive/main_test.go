package main

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"btr/internal/adversary"
	"btr/internal/core"
	"btr/internal/flow"
	"btr/internal/live"
	"btr/internal/network"
	"btr/internal/sim"
)

// TestFailingRunStillWritesProfile pins the os.Exit-audit contract run()
// exists for: a run that fails *after* profiling has started must still
// flush a valid CPU profile on its way out (main minus os.Exit — the
// deferred stop must run on every return path, not just success).
func TestFailingRunStillWritesProfile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "cpu.pprof")
	// -at beyond the horizon fails validation after profFlags.Start().
	code := run([]string{"-orchestrate", "-horizon", "5", "-at", "30", "-cpuprofile", out},
		strings.NewReader(""), io.Discard, io.Discard)
	if code == 0 {
		t.Fatal("invalid -at accepted")
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("failing run left no profile: %v", err)
	}
	// A flushed pprof profile is gzip-framed; an unflushed one is empty.
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("profile not a flushed gzip stream (%d bytes)", len(b))
	}
}

func TestBuildTopologyListsValidChoices(t *testing.T) {
	if _, err := live.BuildTopology("full-mesh", 6); err != nil {
		t.Fatalf("valid topo rejected: %v", err)
	}
	_, err := live.BuildTopology("mesh", 6)
	if err == nil {
		t.Fatal("unknown -topo silently accepted")
	}
	for _, want := range []string{"-topo", `"mesh"`, "valid:", "full-mesh", "dual-bus", "ring", "grid"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestBuildFaultListsValidChoices(t *testing.T) {
	var errb strings.Builder
	if code := run([]string{"-fault", "corupt-all"}, strings.NewReader(""), io.Discard, &errb); code != 2 {
		t.Fatalf("unknown -fault: exit %d, want 2", code)
	}
	// Like btrcampaign -family, the error must name the flag and list
	// every valid choice.
	for _, want := range append([]string{"-fault", `"corupt-all"`, "valid:"}, live.FaultKinds()...) {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("error %q missing %q", errb.String(), want)
		}
	}
}

// TestCatalogEntryReachesFaultValidation: the -fault and -faults choices
// are read from adversary.Catalog when a flag is checked, so an entry
// added after start-up is accepted and listed with no other edit.
func TestCatalogEntryReachesFaultValidation(t *testing.T) {
	saved := adversary.Catalog
	t.Cleanup(func() { adversary.Catalog = saved })
	crash := func(n network.NodeID, _ flow.TaskID, _, at sim.Time) adversary.Attack { return adversary.Crash(n, at) }
	adversary.Catalog = append(append([]adversary.Behavior(nil), saved...),
		adversary.Behavior{Name: "dummy-node", Scope: adversary.Node, Build: crash},
		adversary.Behavior{Name: "dummy-proc", Scope: adversary.Process})

	for _, c := range []struct {
		list       string
		kinds      []string
		node, proc bool
	}{
		{"FaultKinds", live.FaultKinds(), true, false},
		{"ProcFaultKinds", live.ProcFaultKinds(), true, true},
		{"StormFaultKinds", live.StormFaultKinds(), false, true},
	} {
		if got := slices.Contains(c.kinds, "dummy-node"); got != c.node {
			t.Errorf("%s lists dummy-node: %v, want %v (%v)", c.list, got, c.node, c.kinds)
		}
		if got := slices.Contains(c.kinds, "dummy-proc"); got != c.proc {
			t.Errorf("%s lists dummy-proc: %v, want %v (%v)", c.list, got, c.proc, c.kinds)
		}
	}
	if _, err := (adversary.Script{{Behavior: "dummy-node", Node: -1}}).Resolve(4, 0); err != nil {
		t.Errorf("-fault dummy-node rejected: %v", err)
	}
	if _, err := adversary.ParseScript("dummy-proc@3", 25, live.StormFaultKinds()); err != nil {
		t.Errorf("-faults dummy-proc@3 rejected: %v", err)
	}
	var errb strings.Builder
	if code := run([]string{"-orchestrate", "-fault", "nope"}, strings.NewReader(""), io.Discard, &errb); code != 2 {
		t.Fatalf("-orchestrate -fault nope: exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "dummy-proc") {
		t.Errorf("-orchestrate -fault error does not list the added entry: %s", errb.String())
	}
}

// TestOrchestratedExitsPrintInNodeOrder: the node exit lines of an
// orchestrated run come out in ascending node order, the same on every
// print of the same result.
func TestOrchestratedExitsPrintInNodeOrder(t *testing.T) {
	const p = 500 * sim.Millisecond
	cfg := live.OrchestratorConfig{Nodes: 4, F: 1, Period: p}
	res := &live.ProcResult{
		Report: core.NewPlant(live.DefaultWorkload(p), 10, 4*p, nil).Report(),
		Exits:  map[int]string{3: "exit status 1", 0: "signal: killed", 2: "", 1: "exit status 2"},
	}
	var first string
	for i := 0; i < 20; i++ {
		var out strings.Builder
		printOrchestrated(&out, cfg, res)
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("print %d differs:\n%s\nvs the first:\n%s", i, out.String(), first)
		}
	}
	want := "node 0 exit: signal: killed\nnode 1 exit: exit status 2\nnode 3 exit: exit status 1\n"
	if !strings.Contains(first, want) {
		t.Errorf("exit lines not in node order:\n%s", first)
	}
}

// wantUsageError runs btrlive with args and requires exit status 2
// with an error naming -flag.
func wantUsageError(t *testing.T, flag string, args ...string) {
	t.Helper()
	var errb strings.Builder
	if code := run(args, strings.NewReader(""), io.Discard, &errb); code != 2 || !strings.Contains(errb.String(), "-"+flag) {
		t.Errorf("%v: exit %d, stderr %q; want usage error 2 naming -%s", args, code, errb.String(), flag)
	}
}

// TestFaultsRequiresOrchestrate pins the mode table: a flag the chosen
// mode would ignore is rejected before anything runs, and -at is
// range-checked in every mode.
func TestFaultsRequiresOrchestrate(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"faults", []string{"-faults", "stop@3+3,kill-restart@5+3"}},
		// An explicit single -fault alongside a schedule is a contradiction.
		{"fault", []string{"-orchestrate", "-fault", "kill", "-faults", "stop@3+3,kill-restart@5+3"}},
		{"forgive", []string{"-forgive", "1s", "-fault", "none", "-horizon", "5"}},
		{"faults", []string{"-node", "0", "-faults", "stop@3+3"}},
		{"forgive", []string{"-node", "0", "-forgive", "1s"}},
		{"at", []string{"-node", "0", "-horizon", "5", "-at", "30"}},
		{"kernel", []string{"-kernel", "-orchestrate"}},
		{"kernel", []string{"-kernel", "-node", "0"}},
		{"orchestrate", []string{"-orchestrate", "-node", "0"}},
		{"peers", []string{"-peers", "a:1,b:2"}},
		{"members", []string{"-orchestrate", "-members", "3"}},
		{"join", []string{"-node", "0", "-join", "5@3"}},
	} {
		wantUsageError(t, c.flag, c.args...)
	}
}

// TestClientFlagsContradictions pins the serving-surface flag rules: a
// client load only exists in orchestrated mode, and an op rate only
// exists when sessions carry it.
func TestClientFlagsContradictions(t *testing.T) {
	for _, c := range []struct {
		flag string
		args []string
	}{
		{"clients", []string{"-clients", "8"}},
		{"clients", []string{"-node", "0", "-clients", "8"}},
		{"ops", []string{"-node", "0", "-ops", "100"}},
		{"ops", []string{"-orchestrate", "-ops", "100"}},
		{"clients", []string{"-orchestrate", "-clients", "-1"}},
		{"clients", []string{"-orchestrate", "-clients", "5000"}},
		{"ops", []string{"-orchestrate", "-clients", "4", "-ops", "-1"}},
	} {
		wantUsageError(t, c.flag, c.args...)
	}
}

// TestEveryAttackRecoversWithinR: on the kernel, each -fault choice
// (every in-process catalog behavior, plus none) recovers within R, so
// btrlive exits 0.
func TestEveryAttackRecoversWithinR(t *testing.T) {
	for _, a := range live.FaultKinds() {
		var out strings.Builder
		if code := run([]string{"-kernel", "-fault", a}, strings.NewReader(""), &out, &out); code != 0 {
			t.Errorf("-fault %s: exit %d\n%s", a, code, out.String())
		}
	}
}

// TestBoundViolationExitsOne: with f = 0 nothing masks the corrupted
// sink, its recovery exceeds R, and the verdict is the exit status.
func TestBoundViolationExitsOne(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-kernel", "-f", "0", "-fault", "corrupt-sink"}, strings.NewReader(""), &out, &out); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "verdict: VIOLATION") {
		t.Fatalf("no violated bound reported:\n%s", out.String())
	}
}

// TestKernelRunIsByteIdentical: on the kernel the same flags print the
// same bytes on every run — strategy, evidence stream, recovery and
// verdict alike.
func TestKernelRunIsByteIdentical(t *testing.T) {
	var outs [2]strings.Builder
	for i := range outs {
		if code := run([]string{"-kernel", "-v", "-fault", "corrupt-all"}, strings.NewReader(""), &outs[i], &outs[i]); code != 0 {
			t.Fatalf("run %d: exit %d\n%s", i, code, outs[i].String())
		}
	}
	if outs[0].String() != outs[1].String() {
		t.Fatalf("two runs differ:\n%s\nvs\n%s", outs[0].String(), outs[1].String())
	}
}

// TestKernelVerbosePrintsStrategy: -kernel -v is the planner front-end;
// it prints the strategy summary, transitions included, before the run.
func TestKernelVerbosePrintsStrategy(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-kernel", "-v", "-fault", "none", "-horizon", "1"}, strings.NewReader(""), &out, io.Discard); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	for _, want := range []string{"strategy: 7 plans, F=1", "transitions (worst-case per successor mode):", "per-mode schedules:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestParseChurnEvents(t *testing.T) {
	evs, err := parseChurn("join", "6@5,7@9", 8, 20)
	if err != nil {
		t.Fatalf("valid join spec rejected: %v", err)
	}
	if len(evs) != 2 || evs[0].at != 5 || evs[0].delta.Join[0] != network.NodeID(6) {
		t.Fatalf("join spec parsed wrong: %+v", evs)
	}
	evs, err = parseChurn("replace", "7:2@9", 8, 20)
	if err != nil {
		t.Fatalf("valid replace spec rejected: %v", err)
	}
	if len(evs) != 1 || evs[0].delta.Join[0] != 7 || evs[0].delta.Retire[0] != 2 {
		t.Fatalf("replace spec parsed wrong: %+v", evs)
	}
	if evs, err := parseChurn("retire", "", 8, 20); err != nil || evs != nil {
		t.Fatalf("empty spec should parse to nothing: %v %v", evs, err)
	}
	for name, spec := range map[string]string{
		"missing @":         "6",
		"bad period":        "6@x",
		"period >= horizon": "6@20",
		"period zero":       "6@0",
		"slot out of range": "9@5",
		"replace without :": "7@5",
		"replace bad old":   "7:9@5",
		"garbage slot":      "x@5",
	} {
		flagName := "join"
		if strings.HasPrefix(spec, "7:") || spec == "7@5" {
			flagName = "replace"
		}
		if _, err := parseChurn(flagName, spec, 8, 20); err == nil {
			t.Errorf("%s (%q) silently accepted", name, spec)
		}
	}
}

// TestVerdictExitsOneIffViolated: the printed verdict and the exit status
// come from the judge's violation list alone.
func TestVerdictExitsOneIffViolated(t *testing.T) {
	var out strings.Builder
	if code := verdict(&out, nil, "clean soak"); code != 0 || out.String() != "verdict: clean soak\n" {
		t.Errorf("no violations: exit %d, printed %q", code, out.String())
	}
	out.Reset()
	if code := verdict(&out, []string{"a", "b"}, "clean soak"); code != 1 || strings.Count(out.String(), "VIOLATION") != 2 {
		t.Errorf("two violations: exit %d, printed %q", code, out.String())
	}
}
