package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// loadSet reads one result set: a result file, or a directory whose
// *.json files are the runs of the set.
func loadSet(path string) ([]resultFile, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var set []resultFile
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set = append(set, r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no result files", path)
	}
	return set, nil
}

// values collects one metric of one workload over the correct runs of a
// set.
func values(set []resultFile, workload, name string) []float64 {
	var out []float64
	for _, r := range set {
		if w := r.Workloads[workload]; w.Correct {
			if m, ok := w.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// runCompare prints, per workload and end-to-end metric, the median of
// each set, how much worse the second is than the first, each set's
// interquartile spread, the bound, and PASS or FAIL (a demoted metric
// has no bound and no verdict). It returns 1 if any gated metric is
// worse by more than its bound.
func runCompare(w io.Writer, a, b string) int {
	setA, err := loadSet(a)
	if err == nil {
		var setB []resultFile
		if setB, err = loadSet(b); err == nil {
			return compareSets(w, setA, setB)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareSets(w io.Writer, setA, setB []resultFile) int {
	code := 0
	fmt.Fprintf(w, "%-18s %-18s %5s %14s %14s %9s %8s %8s %7s\n",
		"workload", "metric", "runs", "median a", "median b", "worse", "iqr a", "iqr b", "bound")
	for _, wl := range workloads {
		for _, s := range reportedSpec {
			va, vb := values(setA, wl.name, s.Name), values(setB, wl.name, s.Name)
			ma, mb := median(va), median(vb)
			if len(va) == 0 || len(vb) == 0 || ma == 0 {
				continue
			}
			worse := (mb - ma) / ma
			if s.Better == "higher" {
				worse = -worse
			}
			bound, verdict := "-", "not gated"
			if s.Bound > 0 {
				bound, verdict = fmt.Sprintf("%.1f%%", s.Bound*100), "PASS"
				if worse > s.Bound {
					verdict, code = "FAIL", 1
				}
			}
			fmt.Fprintf(w, "%-18s %-18s %5s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%% %7s %s\n",
				wl.name, s.Name, fmt.Sprintf("%d/%d", len(va), len(vb)), ma, mb, worse*100, iqrFrac(va)*100, iqrFrac(vb)*100, bound, verdict)
		}
	}
	return code
}
