// Command btrfaultmodel machine-checks FAULT_MODEL.md, the repository's
// fault-model matrix: every catalog behavior × regime (≤ f active, > f
// transient, > f sustained) must have a row, every cell claiming
// "tolerated" or "detected" must cite the Go test or campaign-bench gate
// that proves it, and every cited test must actually exist in the
// module's test binaries. Documentation that claims coverage it cannot
// point to fails CI.
//
//	btrfaultmodel -check [-model FAULT_MODEL.md] [-bench BENCH_campaign.json]
//	              [-testlist names.txt]
//	btrfaultmodel -links README.md ROADMAP.md FAULT_MODEL.md ...
//
// -check parses the matrix and verifies coverage plus citations. Test
// citations (`TestX`, `FuzzX`) are resolved against `go test -list '.*'
// ./...` run in the model's directory — or, hermetically, against a
// -testlist file with one name per line. Gate citations (`bench:<section>`)
// are resolved against the committed BENCH_campaign.json: the section
// must exist and be non-empty. That a cited section is also gated is
// pinned in the root package (TestFaultModelCitationsAreGated), next to
// the gates table `make bench-check` applies.
//
// -links is a relative-link checker for the repository's markdown docs:
// every `[text](path#anchor)` must point at an existing file and, when
// it carries a fragment, at a real heading (GitHub slugging) in that
// file.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	check := flag.Bool("check", false, "verify the fault-model matrix (coverage + citations)")
	links := flag.Bool("links", false, "check relative markdown links/anchors in the listed files")
	model := flag.String("model", "FAULT_MODEL.md", "fault-model matrix to verify")
	bench := flag.String("bench", "BENCH_campaign.json", "committed bench bundle resolving bench:<section> citations")
	testlist := flag.String("testlist", "", "file with one test name per line (default: run `go test -list` over the module)")
	flag.Parse()

	if !*check && !*links {
		fmt.Fprintln(os.Stderr, "btrfaultmodel: nothing to do (pass -check and/or -links)")
		os.Exit(2)
	}
	var failures []string
	if *check {
		fails, err := runCheck(*model, *bench, *testlist)
		if err != nil {
			fmt.Fprintf(os.Stderr, "btrfaultmodel: %v\n", err)
			os.Exit(2)
		}
		failures = append(failures, fails...)
	}
	if *links {
		files := flag.Args()
		if len(files) == 0 {
			fmt.Fprintln(os.Stderr, "btrfaultmodel: -links needs markdown files as arguments")
			os.Exit(2)
		}
		for _, f := range files {
			fails, err := checkLinks(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "btrfaultmodel: %v\n", err)
				os.Exit(2)
			}
			failures = append(failures, fails...)
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Printf("FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	if *check {
		fmt.Printf("fault model OK: %s covers the full catalog with verified citations\n", *model)
	}
	if *links {
		fmt.Printf("links OK: %d file(s) checked\n", len(flag.Args()))
	}
}
