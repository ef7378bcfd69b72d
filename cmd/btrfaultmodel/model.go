package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"unicode"

	"btr/internal/adversary"
)

// regimes are the matrix columns, in order.
var regimes = [3]string{"≤ f active", "> f transient", "> f sustained"}

// requiredBehaviors is the full catalog the matrix must cover, one row
// per adversary.Catalog entry.
func requiredBehaviors() []string { return adversary.Names(nil) }

// cell is one parsed matrix cell: a classification plus its citations.
type cell struct {
	Class     string // tolerated | detected | untolerated
	Citations []string
}

// modelRow is one parsed matrix row.
type modelRow struct {
	Behavior string
	Line     int
	Cells    [3]cell
}

var citationRE = regexp.MustCompile("`([^`]+)`")

// parseModel extracts the fault-model matrix from the markdown source:
// the first table whose header row starts with "| behavior |". Each data
// row is `| `behavior` | cell | cell | cell |`; a cell is a
// classification word followed by backtick-quoted citations.
func parseModel(src string) ([]modelRow, error) {
	lines := strings.Split(src, "\n")
	var rows []modelRow
	inTable := false
	for i, line := range lines {
		t := strings.TrimSpace(line)
		if !inTable {
			if strings.HasPrefix(strings.ToLower(t), "| behavior |") {
				inTable = true
			}
			continue
		}
		if !strings.HasPrefix(t, "|") {
			break
		}
		cells := splitTableRow(t)
		if len(cells) > 0 && strings.HasPrefix(cells[0], "---") {
			continue // separator row
		}
		if len(cells) != 4 {
			return nil, fmt.Errorf("line %d: matrix row has %d cells, want 4 (behavior + 3 regimes)", i+1, len(cells))
		}
		name := citationRE.FindStringSubmatch(cells[0])
		if name == nil {
			return nil, fmt.Errorf("line %d: behavior cell %q carries no backtick-quoted name", i+1, cells[0])
		}
		row := modelRow{Behavior: name[1], Line: i + 1}
		for j, c := range cells[1:] {
			class := strings.ToLower(strings.Fields(c)[0])
			switch class {
			case "tolerated", "detected", "untolerated":
			default:
				return nil, fmt.Errorf("line %d: %s cell %q does not open with tolerated/detected/untolerated", i+1, regimes[j], c)
			}
			row.Cells[j] = cell{Class: class, Citations: citations(c)}
		}
		rows = append(rows, row)
	}
	if !inTable {
		return nil, fmt.Errorf("no fault-model matrix found (a table whose header starts with \"| behavior |\")")
	}
	return rows, nil
}

// splitTableRow splits a markdown table line into trimmed cells.
func splitTableRow(line string) []string {
	line = strings.Trim(line, "|")
	parts := strings.Split(line, "|")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// citations extracts the backtick-quoted citations of a cell.
func citations(c string) []string {
	var out []string
	for _, m := range citationRE.FindAllStringSubmatch(c, -1) {
		out = append(out, m[1])
	}
	return out
}

// loadTestNames returns the set of test/fuzz names: from a one-per-line
// file when given, else from `go test -list '.*' ./...` run in dir.
func loadTestNames(listFile, dir string) (map[string]bool, error) {
	var raw []byte
	if listFile != "" {
		b, err := os.ReadFile(listFile)
		if err != nil {
			return nil, err
		}
		raw = b
	} else {
		cmd := exec.Command("go", "test", "-list", ".*", "./...")
		cmd.Dir = dir
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go test -list: %w", err)
		}
		raw = b
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) != 1 {
			continue
		}
		for _, prefix := range []string{"Test", "Fuzz", "Benchmark", "Example"} {
			if strings.HasPrefix(f[0], prefix) {
				names[f[0]] = true
			}
		}
	}
	return names, nil
}

// benchSections returns the non-empty top-level sections of the
// committed bench bundle.
func benchSections(path string) (map[string]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(b, &sections); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bool{}
	for k, v := range sections {
		switch strings.TrimSpace(string(v)) {
		case "null", "{}", "[]", `""`:
		default:
			out[k] = true
		}
	}
	return out, nil
}

// runCheck parses the model and verifies full catalog coverage plus
// every citation.
func runCheck(modelPath, benchPath, testlist string) ([]string, error) {
	src, err := os.ReadFile(modelPath)
	if err != nil {
		return nil, err
	}
	rows, err := parseModel(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", modelPath, err)
	}
	tests, err := loadTestNames(testlist, filepath.Dir(modelPath))
	if err != nil {
		return nil, err
	}
	sections, err := benchSections(benchPath)
	if err != nil {
		return nil, err
	}
	return verifyModel(modelPath, rows, tests, sections), nil
}

// verifyModel checks coverage and citations; it returns the failure
// list (empty = pass).
func verifyModel(modelPath string, rows []modelRow, tests, sections map[string]bool) []string {
	var failures []string
	failf := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	byName := map[string]modelRow{}
	for _, r := range rows {
		if _, dup := byName[r.Behavior]; dup {
			failf("%s: duplicate matrix row for %q", modelPath, r.Behavior)
		}
		byName[r.Behavior] = r
	}
	for _, want := range requiredBehaviors() {
		if _, ok := byName[want]; !ok {
			failf("%s: catalog behavior %q has no matrix row", modelPath, want)
		}
	}
	for _, r := range rows {
		if _, ok := adversary.Lookup(r.Behavior); !ok {
			failf("%s:%d: matrix row %q names no catalog behavior", modelPath, r.Line, r.Behavior)
		}
		for j, c := range r.Cells {
			if c.Class != "untolerated" && len(c.Citations) == 0 {
				failf("%s:%d: %s / %s claims %q without citing a test or gate",
					modelPath, r.Line, r.Behavior, regimes[j], c.Class)
			}
			for _, cite := range c.Citations {
				switch {
				case strings.HasPrefix(cite, "bench:"):
					if sec := strings.TrimPrefix(cite, "bench:"); !sections[sec] {
						failf("%s:%d: %s / %s cites %q but the bench bundle has no non-empty %q section",
							modelPath, r.Line, r.Behavior, regimes[j], cite, sec)
					}
				case strings.HasPrefix(cite, "Test") || strings.HasPrefix(cite, "Fuzz"):
					if !tests[cite] {
						failf("%s:%d: %s / %s cites %s, which exists in no test binary",
							modelPath, r.Line, r.Behavior, regimes[j], cite)
					}
				default:
					failf("%s:%d: %s / %s citation %q is neither a Test/Fuzz name nor bench:<section>",
						modelPath, r.Line, r.Behavior, regimes[j], cite)
				}
			}
		}
	}
	return failures
}

// --- markdown link checker --------------------------------------------------

var linkRE = regexp.MustCompile(`\[[^\]]*\]\(([^()\s]+)\)`)

// checkLinks verifies every relative link and anchor of one markdown
// file.
func checkLinks(path string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var failures []string
	inFence := false
	for i, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external: not checked offline
			}
			file, frag, _ := strings.Cut(target, "#")
			dest := path
			if file != "" {
				dest = filepath.Join(filepath.Dir(path), file)
				if rel, err := filepath.Rel(filepath.Dir(path), dest); err == nil &&
					(rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator))) {
					continue // escapes the docs tree (GitHub-web paths like badge URLs) — not checkable offline
				}
				if _, err := os.Stat(dest); err != nil {
					failures = append(failures, fmt.Sprintf("%s:%d: broken link %q: %s does not exist", path, i+1, target, dest))
					continue
				}
			}
			if frag == "" {
				continue
			}
			if !strings.HasSuffix(strings.ToLower(dest), ".md") {
				continue // anchors only resolvable in markdown
			}
			ok, err := hasAnchor(dest, frag)
			if err != nil {
				return nil, err
			}
			if !ok {
				failures = append(failures, fmt.Sprintf("%s:%d: broken anchor %q: no heading in %s slugs to #%s", path, i+1, target, dest, frag))
			}
		}
	}
	return failures, nil
}

// hasAnchor reports whether a markdown file has a heading whose GitHub
// slug equals frag.
func hasAnchor(path, frag string) (bool, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	counts := map[string]int{}
	inFence := false
	for _, line := range strings.Split(string(src), "\n") {
		t := strings.TrimSpace(line)
		if strings.HasPrefix(t, "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(t, "#") {
			continue
		}
		heading := strings.TrimLeft(t, "#")
		if heading == t || (heading != "" && heading[0] != ' ') {
			continue // not a heading (e.g. #hashtag)
		}
		s := slugify(strings.TrimSpace(heading))
		// GitHub de-duplicates repeated headings as slug, slug-1, slug-2…
		if n := counts[s]; n > 0 {
			if fmt.Sprintf("%s-%d", s, n) == frag {
				return true, nil
			}
		} else if s == frag {
			return true, nil
		}
		counts[s]++
	}
	return false, nil
}

// slugify reproduces GitHub's heading-to-anchor slugging: lowercase,
// spaces to hyphens, everything but letters/digits/hyphens/underscores
// dropped (backticks and other punctuation vanish).
func slugify(h string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(h) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}
