package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runShort runs the smoke size of one workload (or all) and returns the
// exit code, what was printed, the results written, and the directory
// they were written to.
func runShort(t *testing.T, name string, trace bool) (int, string, map[string]fileResult, string) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "result.json")
	var buf bytes.Buffer
	code := run(&buf, name, 1, 0.3, trace, true, out)
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		t.Fatal(err)
	}
	return code, buf.String(), rf.Workloads, dir
}

// checkPrinted asserts that every metric of specs the workload measures
// (all of them with all set) was reported and printed exactly once, with
// a finite value and its declared unit, and no other.
func checkPrinted(t *testing.T, printed, workload string, r fileResult, specs []spec, all bool) {
	t.Helper()
	n := 0
	for _, s := range specs {
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(workload) + ` +` + regexp.QuoteMeta(s.Name) + ` `)
		m, ok := r.Metrics[s.Name]
		if !all && !s.measuredOn(workload) {
			if ok || line.MatchString(printed) {
				t.Errorf("%s: %s reported on a workload that does not measure it", workload, s.Name)
			}
			continue
		}
		n++
		if !ok {
			t.Errorf("%s: %s missing", workload, s.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != s.Unit {
			t.Errorf("%s: %s = %v %q, want a finite value in %q", workload, s.Name, m.Value, m.Unit, s.Unit)
		}
		if n := len(line.FindAllString(printed, -1)); n != 1 {
			t.Errorf("%s: %s printed %d times", workload, s.Name, n)
		}
	}
	if len(r.Metrics) != n {
		t.Errorf("%s: %d metrics reported, %d declared", workload, len(r.Metrics), n)
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	code, printed, results, _ := runShort(t, "all", false)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, printed)
	}
	lines := strings.Split(strings.TrimSpace(printed), "\n")
	var last map[string]result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the results as JSON: %v", err)
	}
	for _, wl := range workloads {
		r := results[wl.name]
		checkPrinted(t, printed, wl.name, r, reportedSpec, false)
		if !r.Correct || r.Failed != 0 || r.Metrics["goodput_frac"].Value != 1 {
			t.Errorf("%s: correct %v, failed %d, goodput %v", wl.name, r.Correct, r.Failed, r.Metrics["goodput_frac"].Value)
		}
		for name, m := range r.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics are never 0", wl.name, name, m.Value)
			}
		}
		// The result line carries the gated metrics and nothing else.
		if len(last[wl.name].Metrics) != len(endToEndSpec) {
			t.Errorf("%s: the result line has %d metrics, want the %d gated ones", wl.name, len(last[wl.name].Metrics), len(endToEndSpec))
		}
		for _, s := range endToEndSpec {
			if last[wl.name].Metrics[s.Name] != r.Metrics[s.Name] {
				t.Errorf("%s: the result line has %s = %v, the run measured %v", wl.name, s.Name, last[wl.name].Metrics[s.Name], r.Metrics[s.Name])
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	const workload = "client_open_kill"
	code, printed, results, dir := runShort(t, workload, true)
	if code != 0 {
		t.Fatalf("exit code %d:\n%s", code, printed)
	}
	r := results[workload]
	checkPrinted(t, printed, workload, r, perLayerSpec, true)
	for _, s := range perLayerSpec {
		v := r.Metrics[s.Name].Value
		if !s.measuredOn(workload) && v != 0 {
			t.Errorf("%s = %v on a workload that does not measure it", s.Name, v)
		}
		if s.From == "" && v == 0 && !strings.HasSuffix(s.Name, "_frac") && s.Name != "sim.kernel_event_allocs" && s.Name != "sim.wall_lag_p50_us" {
			t.Errorf("probe %s measured nothing", s.Name)
		}
	}
	for _, s := range demotedSpec {
		if s.measuredOn(workload) && r.Metrics[s.Name].Value <= 0 {
			t.Errorf("demoted end-to-end metric %s = %v", s.Name, r.Metrics[s.Name].Value)
		}
	}
	var last result
	lines := strings.Split(strings.TrimSpace(printed), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || len(last.Metrics) != len(perLayerSpec) {
		t.Errorf("last line is not the result line: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.jsonl")); err != nil {
		t.Errorf("no trace written: %v", err)
	}
}

func TestCorruptedTableFailsSimCampaign(t *testing.T) {
	corruptTables = true
	defer func() { corruptTables = false }()
	code, printed, results, _ := runShort(t, "sim_campaign", false)
	r := results["sim_campaign"]
	if code == 0 || r.Correct || r.Metrics["goodput_frac"].Value != 0 {
		t.Fatalf("exit code %d, correct %v, goodput %v with corrupted expected tables:\n%s",
			code, r.Correct, r.Metrics["goodput_frac"].Value, printed)
	}
	if strings.Contains(printed, `{"correct"`) {
		t.Errorf("a failed run printed a result line:\n%s", printed)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, correct bool, mallocs, setup, throughput float64) string {
		rf := resultFile{Workloads: map[string]fileResult{"sim_campaign": {result: result{Correct: correct, Attempted: 1, Metrics: map[string]metric{
			"mallocs_per_op":   {mallocs, "count"},
			"setup_s":          {setup, "s"},
			"throughput_per_s": {throughput, "1/s"},
		}}}}}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", true, 100, 0.1, 50)
	for _, c := range []struct {
		name string
		b    string
		want int
	}{
		{"same", write("same.json", true, 101, 0.11, 49), 0},
		{"more mallocs", write("more.json", true, 103, 0.1, 50), 1},
		{"slower set-up", write("later.json", true, 100, 0.13, 50), 1},
		{"better", write("better.json", true, 50, 0.05, 80), 0},
		{"a demoted metric is not gated", write("slower.json", true, 100, 0.1, 10), 0},
		{"a run that failed is not compared", write("failed.json", false, 500, 5, 1), 0},
		{"no baseline to compare with", write("zero.json", true, 0, 0, 0), 0},
	} {
		var buf bytes.Buffer
		a, b := base, c.b
		if c.name == "no baseline to compare with" {
			a, b = b, a
		}
		if got := runCompare(&buf, a, b); got != c.want {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, got, c.want, buf.String())
		}
		if strings.Contains(buf.String(), "NaN") || strings.Contains(buf.String(), "Inf") {
			t.Errorf("%s: printed a NaN or Inf\n%s", c.name, buf.String())
		}
	}
	if got := runCompare(io.Discard, base, filepath.Join(dir, "missing.json")); got != 2 {
		t.Errorf("compare with a missing file: exit code %d, want 2", got)
	}
}

// TestManifest pins BENCHMARK.json to the tables in spec.go and to the
// limits its schema sets.
func TestManifest(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Errorf("BENCHMARK.json differs from spec.go; regenerate it with: go run -C benchmark btr/benchmark -manifest > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(s spec) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || seen[s.Name] || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("bad or repeated metric %+v", s)
		}
		seen[s.Name] = true
	}
	// The tightest bound the issue sets for the metric on any workload;
	// for setup_s the schema's cap, which the issue allows.
	issueBound := map[string]float64{"mallocs_per_op": 0.02, "goodput_frac": 0.005, "setup_s": 0.25}
	for _, s := range endToEndSpec {
		check(s)
		if s.Bound <= 0 || s.Bound > issueBound[s.Name] {
			t.Errorf("%s: bound %v outside (0, %v]", s.Name, s.Bound, issueBound[s.Name])
		}
		if s.From != fromAll {
			t.Errorf("%s: a gated metric is measured on every workload", s.Name)
		}
	}
	for _, s := range perLayerSpec {
		check(s)
		if s.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", s.Name)
		}
	}
	if len(perLayerSpec) > 128 || len(endToEndSpec) > 16 || len(got) > 64<<10 {
		t.Errorf("%d per-layer metrics, %d end-to-end, %d bytes", len(perLayerSpec), len(endToEndSpec), len(got))
	}
	for _, wl := range workloads {
		why := workloadWhy[wl.name]
		if !name.MatchString(wl.name) || seen[wl.name] || why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q: bad name or why (%d characters)", wl.name, len(why))
		}
		seen[wl.name] = true
	}
}
