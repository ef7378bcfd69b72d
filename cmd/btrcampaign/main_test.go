package main

import (
	"flag"
	"strings"
	"testing"

	"btr/internal/campaign"
	"btr/internal/exp"
)

func scenarioIDs(scs []campaign.Scenario) []string {
	var out []string
	for _, sc := range scs {
		out = append(out, sc.ID)
	}
	return out
}

func TestSelectScenariosUnknownFamilyErrors(t *testing.T) {
	_, err := selectScenarios(exp.Scenarios(), "", "campain") // typo
	if err == nil {
		t.Fatal("unknown -family silently accepted")
	}
	msg := err.Error()
	for _, want := range []string{`-family`, `"campain"`, "valid:", "paper", "campaign", "churn", "live"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q does not mention %q", msg, want)
		}
	}
}

func TestSelectScenariosUnknownOnlyErrors(t *testing.T) {
	_, err := selectScenarios(exp.Scenarios(), "E99", "")
	if err == nil {
		t.Fatal("unknown -only silently accepted")
	}
	if !strings.Contains(err.Error(), "-only") || !strings.Contains(err.Error(), "valid:") || !strings.Contains(err.Error(), "E1") {
		t.Errorf("error %q does not list valid scenarios", err)
	}
}

func TestSelectScenariosFilters(t *testing.T) {
	all := exp.Scenarios()
	live, err := selectScenarios(all, "", "live")
	if err != nil {
		t.Fatalf("family=live: %v", err)
	}
	if ids := scenarioIDs(live); len(ids) != 1 || ids[0] != "C5" {
		t.Errorf("family=live selected %v, want [C5]", ids)
	}
	one, err := selectScenarios(all, "E6", "")
	if err != nil {
		t.Fatalf("only=E6: %v", err)
	}
	if ids := scenarioIDs(one); len(ids) != 1 || ids[0] != "E6" {
		t.Errorf("only=E6 selected %v", ids)
	}
	everything, err := selectScenarios(all, "", "")
	if err != nil || len(everything) != len(all) {
		t.Errorf("no filter selected %d/%d (%v)", len(everything), len(all), err)
	}
	// A valid ID in the wrong family matches nothing — that must error
	// too, not run an empty campaign.
	if _, err := selectScenarios(all, "E6", "live"); err == nil {
		t.Error("contradictory -only/-family silently accepted")
	}
}

// TestFamilyHelpListsEveryFamily: the -family help is derived from the
// scenario table, so it names every family, each once.
func TestFamilyHelpListsEveryFamily(t *testing.T) {
	fs := flag.NewFlagSet("btrcampaign", flag.ContinueOnError)
	registerFlags(fs)
	help := fs.Lookup("family").Usage
	listed := strings.Split(strings.TrimSuffix(help[strings.Index(help, "(")+1:], ")"), " | ")
	want := map[string]bool{}
	for _, sc := range exp.Scenarios() {
		want[sc.Family] = true
	}
	got := map[string]bool{}
	for _, f := range listed {
		if !want[f] || got[f] {
			t.Errorf("-family help %q lists %q, which is no family or named twice", help, f)
		}
		got[f] = true
	}
	if len(got) != len(want) {
		t.Errorf("-family help %q lists %d families, want %d", help, len(got), len(want))
	}
}
