package main

import (
	"bytes"
	"strings"
	"testing"

	"btr/internal/live"
)

// TestEveryAttackRecoversWithinR: each -attack choice (btrlive's -fault
// choices: every in-process catalog behavior, plus none) keeps every
// criticality-A sink of the chain workload within R, so btrsim exits 0.
func TestEveryAttackRecoversWithinR(t *testing.T) {
	for _, a := range live.FaultKinds() {
		var out, errb bytes.Buffer
		if code := run([]string{"-workload", "chain", "-attack", a}, &out, &errb); code != 0 {
			t.Errorf("-attack %s: exit %d\n%s%s", a, code, out.String(), errb.String())
		}
	}
}

// TestBoundViolationExitsOne: with f = 0 nothing masks the corrupted
// sink, its recovery exceeds R, and the verdict is the exit status.
func TestBoundViolationExitsOne(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-f", "0", "-attack", "corrupt-sink"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "within bound: false") {
		t.Fatalf("no violated bound reported:\n%s", out.String())
	}
}

func TestUnknownAttackListsChoices(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-attack", "timing"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, want := range append([]string{`-attack "timing"`, "valid:"}, live.FaultKinds()...) {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("error %q does not mention %q", errb.String(), want)
		}
	}
}
