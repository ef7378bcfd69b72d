package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"btr/internal/live"
	"btr/internal/network"
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
	if _, injected, err := live.BuildAttack("crash", 0, "c2", 100); err != nil || !injected {
		t.Fatalf("valid fault rejected: %v", err)
	}
	if _, injected, err := live.BuildAttack("none", 0, "c2", 100); err != nil || injected {
		t.Fatalf("none fault mishandled: %v injected=%v", err, injected)
	}
	_, _, err := live.BuildAttack("corupt-all", 0, "c2", 100)
	if err == nil {
		t.Fatal("unknown -fault silently accepted")
	}
	// The satellite fix: like btrcampaign -family, the error must name
	// the flag and list every valid choice.
	for _, want := range []string{"-fault", `"corupt-all"`, "valid:", "corrupt-all", "corrupt-sink", "crash", "omit", "flood", "none"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestParseFaultsSchedule(t *testing.T) {
	faults, err := parseFaults("kill-restart@3+3,partition@5", 16)
	if err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if len(faults) != 2 {
		t.Fatalf("schedule parsed wrong: %+v", faults)
	}
	if faults[0].Kind != "kill-restart" || faults[0].Node != -1 || faults[0].FaultAt != 3 || faults[0].HealAfter != 3 {
		t.Fatalf("first entry parsed wrong: %+v", faults[0])
	}
	if faults[1].Kind != "partition" || faults[1].HealAfter != 0 {
		t.Fatalf("heal-less entry should leave HealAfter 0 (orchestrator default): %+v", faults[1])
	}
	// An unknown kind errors through cliflag, naming the flag and listing
	// every valid choice.
	_, err = parseFaults("stopp@3", 16)
	if err == nil {
		t.Fatal("unknown schedule kind silently accepted")
	}
	for _, want := range []string{"-faults", `"stopp"`, "valid:", "kill", "kill-restart", "stop", "partition"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	for name, spec := range map[string]string{
		"missing @":         "stop",
		"bad period":        "stop@x",
		"period >= horizon": "stop@16",
		"bad heal":          "stop@3+x",
		"catalog kind":      "corrupt-all@3",
		"empty tail entry":  "stop@3,",
	} {
		if _, err := parseFaults(spec, 16); err == nil {
			t.Errorf("%s (%q) silently accepted", name, spec)
		}
	}
}

func TestFaultsRequiresOrchestrate(t *testing.T) {
	code := run([]string{"-faults", "stop@3+3,kill-restart@5+3"},
		strings.NewReader(""), io.Discard, io.Discard)
	if code != 2 {
		t.Fatalf("-faults without -orchestrate returned %d, want usage error 2", code)
	}
	// An explicit single -fault alongside a schedule is a contradiction.
	code = run([]string{"-orchestrate", "-fault", "kill", "-faults", "stop@3+3,kill-restart@5+3"},
		strings.NewReader(""), io.Discard, io.Discard)
	if code != 2 {
		t.Fatalf("-fault + -faults returned %d, want usage error 2", code)
	}
}

// TestClientFlagsContradictions pins the serving-surface flag rules: a
// client load only exists in orchestrated mode, and an op rate only
// exists when sessions carry it.
func TestClientFlagsContradictions(t *testing.T) {
	for name, args := range map[string][]string{
		"clients without orchestrate": {"-clients", "8"},
		"ops without clients":         {"-orchestrate", "-ops", "100"},
		"negative clients":            {"-orchestrate", "-clients", "-1"},
		"clients above cap":           {"-orchestrate", "-clients", "5000"},
		"negative ops":                {"-orchestrate", "-clients", "4", "-ops", "-1"},
	} {
		if code := run(args, strings.NewReader(""), io.Discard, io.Discard); code != 2 {
			t.Errorf("%s (%v) returned %d, want usage error 2", name, args, code)
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
