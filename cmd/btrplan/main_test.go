package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestDefaultRunPrintsSummary(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	for _, want := range []string{`planned "avionics" on 6-node mesh`, "transitions (worst-case per successor mode):"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestCachePrecomputeStats(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-cache", "-precompute", "-stats"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	for _, want := range []string{"precomputed", "cache stats"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestUnknownTopoListsChoices(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-topo", "torus"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	for _, want := range append([]string{`-topo "torus"`, "valid:"}, names(topologies)...) {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("error %q does not mention %q", errb.String(), want)
		}
	}
}
