package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"btr/internal/adversary"
)

// goodModel builds a minimal matrix source covering the full required
// catalog, citing the given test name everywhere.
func goodModel(cite string) string {
	var b strings.Builder
	b.WriteString("# model\n\n| behavior | ≤ f active | > f transient | > f sustained |\n|---|---|---|---|\n")
	for _, beh := range requiredBehaviors() {
		b.WriteString("| `" + beh + "` | tolerated (`" + cite + "`) | detected (`bench:faultrate`) | untolerated |\n")
	}
	return b.String()
}

func verify(t *testing.T, src string, tests map[string]bool) []string {
	t.Helper()
	rows, err := parseModel(src)
	if err != nil {
		t.Fatal(err)
	}
	return verifyModel("model.md", rows, tests, map[string]bool{"faultrate": true})
}

func TestVerifyFullCatalogPasses(t *testing.T) {
	fails := verify(t, goodModel("TestSomething"), map[string]bool{"TestSomething": true})
	if len(fails) != 0 {
		t.Fatalf("clean model failed: %v", fails)
	}
}

// TestVerifyFailsOnNonexistentCitation is the acceptance pin: a matrix
// citing a test that exists in no test binary must fail the check.
func TestVerifyFailsOnNonexistentCitation(t *testing.T) {
	fails := verify(t, goodModel("TestDoesNotExist"), map[string]bool{"TestSomething": true})
	if len(fails) == 0 {
		t.Fatal("nonexistent citation accepted")
	}
	if !strings.Contains(fails[0], "TestDoesNotExist") {
		t.Fatalf("failure does not name the missing test: %v", fails[0])
	}
}

// TestVerifyFailsOnMissingRow: a misspelt row both leaves its behavior
// uncovered and names no catalog behavior; each must fail the check.
func TestVerifyFailsOnMissingRow(t *testing.T) {
	src := goodModel("TestSomething")
	src = strings.Replace(src, "| `crash` |", "| `krash` |", 1)
	fails := verify(t, src, map[string]bool{"TestSomething": true})
	missing, unknown := false, false
	for _, f := range fails {
		missing = missing || strings.Contains(f, `"crash"`) && strings.Contains(f, "no matrix row")
		unknown = unknown || strings.Contains(f, `"krash"`) && strings.Contains(f, "names no catalog behavior")
	}
	if !missing || !unknown {
		t.Fatalf("krash row not flagged as both a missing crash row and an unknown behavior: %v", fails)
	}
}

// TestCatalogEntryBecomesRequiredRow: a behavior added to
// adversary.Catalog is a required matrix row with no other edit.
func TestCatalogEntryBecomesRequiredRow(t *testing.T) {
	saved := adversary.Catalog
	t.Cleanup(func() { adversary.Catalog = saved })
	src := goodModel("TestSomething")
	adversary.Catalog = append(append([]adversary.Behavior(nil), saved...), adversary.Behavior{Name: "dummy", Scope: adversary.Process})
	fails := verify(t, src, map[string]bool{"TestSomething": true})
	if len(fails) != 1 || !strings.Contains(fails[0], `"dummy"`) || !strings.Contains(fails[0], "no matrix row") {
		t.Fatalf("dummy catalog entry not required as a row: %v", fails)
	}
	if fails := verify(t, goodModel("TestSomething"), map[string]bool{"TestSomething": true}); len(fails) != 0 {
		t.Fatalf("model with a dummy row failed: %v", fails)
	}
}

func TestVerifyFailsOnUncitedClaim(t *testing.T) {
	src := goodModel("TestSomething")
	src = strings.Replace(src, "tolerated (`TestSomething`)", "tolerated", 1)
	fails := verify(t, src, map[string]bool{"TestSomething": true})
	if len(fails) == 0 || !strings.Contains(fails[0], "without citing") {
		t.Fatalf("uncited tolerated claim not flagged: %v", fails)
	}
}

func TestVerifyFailsOnMissingBenchSection(t *testing.T) {
	rows, err := parseModel(goodModel("TestSomething"))
	if err != nil {
		t.Fatal(err)
	}
	fails := verifyModel("model.md", rows, map[string]bool{"TestSomething": true}, map[string]bool{})
	if len(fails) == 0 || !strings.Contains(fails[0], "bench:faultrate") {
		t.Fatalf("missing bench section not flagged: %v", fails)
	}
}

func TestParseModelRejectsBadCells(t *testing.T) {
	for _, src := range []string{
		"| behavior | a | b | c |\n|---|---|---|---|\n| `x` | maybe | detected | untolerated |\n",
		"| behavior | a | b | c |\n|---|---|---|---|\n| x | tolerated | detected | untolerated |\n",
		"| behavior | a | b | c |\n|---|---|---|---|\n| `x` | tolerated | detected |\n",
		"no table at all\n",
	} {
		if _, err := parseModel(src); err == nil {
			t.Errorf("malformed model accepted:\n%s", src)
		}
	}
}

// repoTestNames scans the repository's _test.go sources for test
// function declarations — a hermetic stand-in for `go test -list` that
// keeps this test independent of compilation.
func repoTestNames(t *testing.T, root string) map[string]bool {
	t.Helper()
	re := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range re.FindAllStringSubmatch(string(b), -1) {
			names[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestCommittedModelVerifies checks the real FAULT_MODEL.md against the
// real test inventory and the committed bench bundle: full catalog
// coverage, every citation resolvable. This is the same check CI runs
// via `btrfaultmodel -check`, pinned into `go test ./...`.
func TestCommittedModelVerifies(t *testing.T) {
	src, err := os.ReadFile("../../FAULT_MODEL.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseModel(string(src))
	if err != nil {
		t.Fatal(err)
	}
	sections, err := benchSections("../../BENCH_campaign.json")
	if err != nil {
		t.Fatal(err)
	}
	fails := verifyModel("FAULT_MODEL.md", rows, repoTestNames(t, "../.."), sections)
	for _, f := range fails {
		t.Error(f)
	}
}

func TestSlugify(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"Fault model", "fault-model"},
		{"High-fault-rate regime (C8)", "high-fault-rate-regime-c8"},
		{"`cmd/btrlive` flags", "cmdbtrlive-flags"},
		{"Schema v1 → v7", "schema-v1--v7"},
	} {
		if got := slugify(c.in); got != c.want {
			t.Errorf("slugify(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCheckLinks(t *testing.T) {
	dir := t.TempDir()
	other := filepath.Join(dir, "other.md")
	os.WriteFile(other, []byte("# Top\n\n## Real heading\n"), 0o644)
	doc := filepath.Join(dir, "doc.md")
	os.WriteFile(doc, []byte(strings.Join([]string{
		"# Doc",
		"[ok file](other.md)",
		"[ok anchor](other.md#real-heading)",
		"[ok self](#doc)",
		"[external](https://example.com/x#y)",
		"[escapes the tree](../../actions/workflows/ci.yml/badge.svg)",
		"```",
		"[not a link in a fence](missing.md)",
		"```",
		"[broken file](missing.md)",
		"[broken anchor](other.md#no-such)",
	}, "\n")), 0o644)
	fails, err := checkLinks(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(fails) != 2 {
		t.Fatalf("want 2 failures, got %v", fails)
	}
	if !strings.Contains(fails[0], "missing.md") || !strings.Contains(fails[1], "no-such") {
		t.Fatalf("unexpected failures: %v", fails)
	}
}
