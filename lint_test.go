package btr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"btr/internal/exp"
)

// Source audits over this module's own non-test code. Each one walks
// the module with moduleSources and inspects the syntax; an audit that
// needs types can hand a package's Files to go/types as they are.

// sourcePackage is one directory of the module's non-test Go files.
type sourcePackage struct {
	Dir   string // slash-separated, relative to the module root
	Files []*ast.File
}

// moduleSources parses every non-test .go file of the module rooted at
// the working directory (a test's package directory, here the root),
// with comments, one sourcePackage per directory in walk order. It
// skips nested modules (a directory with its own go.mod, such as
// benchmark/), testdata, and directories whose names start with "." or
// "_", as the go tool does. The FileSet resolves every position in the
// returned files.
func moduleSources(t *testing.T) (*token.FileSet, []sourcePackage) {
	t.Helper()
	fset := token.NewFileSet()
	var pkgs []sourcePackage
	index := map[string]int{} // Dir -> position in pkgs
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		i, ok := index[dir]
		if !ok {
			i = len(pkgs)
			index[dir] = i
			pkgs = append(pkgs, sourcePackage{Dir: dir})
		}
		pkgs[i].Files = append(pkgs[i].Files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
}

// importName returns the name file f refers to the package at path by,
// or "" when f does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == path {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return path[strings.LastIndex(path, "/")+1:]
		}
	}
	return ""
}

// reflectSorts are the sort package's entry points that swap through
// reflection or an interface: sort.Slice and sort.SliceStable allocate a
// reflectlite swapper on every call. slices.Sort, SortFunc and
// SortStableFunc run the same pdqsort and stable merge on the slice
// itself, so ties resolve the same way.
var reflectSorts = []string{"Slice", "SliceStable", "Sort"}

// reflectSortUses returns every reference in f to one of reflectSorts.
func reflectSortUses(f *ast.File) []*ast.SelectorExpr {
	return selectorUses(f, importName(f, "sort"), reflectSorts...)
}

// selectorUses returns every reference under node to pkg.X for X one of
// names, where pkg is the name a file imports a package by ("" matches
// nothing).
func selectorUses(node ast.Node, pkg string, names ...string) []*ast.SelectorExpr {
	if pkg == "" {
		return nil
	}
	var out []*ast.SelectorExpr
	ast.Inspect(node, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg && slices.Contains(names, sel.Sel.Name) {
				out = append(out, sel)
			}
		}
		return true
	})
	return out
}

// TestNoReflectionSorts: no non-test code of the module calls sort.Slice,
// sort.SliceStable or sort.Sort.
func TestNoReflectionSorts(t *testing.T) {
	fset, pkgs := moduleSources(t)
	dirs := make([]string, len(pkgs))
	for i, p := range pkgs {
		dirs[i] = p.Dir
	}
	// A walker that found nothing would pass vacuously.
	for _, want := range []string{".", "cmd/btrlive", "internal/evidence", "internal/plan/cache"} {
		if !slices.Contains(dirs, want) {
			t.Fatalf("module walk missed %s (found %v)", want, dirs)
		}
	}
	if slices.Contains(dirs, "benchmark") {
		t.Fatal("module walk entered the nested benchmark module")
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, sel := range reflectSortUses(f) {
				t.Errorf("%s: sort.%s; use slices.Sort, SortFunc or SortStableFunc", fset.Position(sel.Pos()), sel.Sel.Name)
			}
		}
	}
}

// stderrAllowed names the only non-test code under internal/ that may
// name os.Stderr, by file and function ("" for the whole file): a node
// process's two fatal lines before it exits, and the profiler's flush
// errors. Everything a node observes leaves it as a runtime.Event.
var stderrAllowed = map[string]string{
	"internal/live/proc.go": "MaybeRunNodeProc",
	"internal/prof/prof.go": "",
}

// TestInternalWritesNoStderr: no non-test code under internal/ names
// os.Stderr outside stderrAllowed — diagnostics are events, not prose.
func TestInternalWritesNoStderr(t *testing.T) {
	fset, pkgs := moduleSources(t)
	allowedSeen := 0
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Dir, "internal/") {
			continue
		}
		for _, f := range p.Files {
			osName := importName(f, "os")
			fn, whole := stderrAllowed[filepath.ToSlash(fset.Position(f.Pos()).Filename)]
			for _, decl := range f.Decls {
				uses := selectorUses(decl, osName, "Stderr")
				if fd, ok := decl.(*ast.FuncDecl); whole && (fn == "" || ok && fd.Name.Name == fn) {
					allowedSeen += len(uses)
					continue
				}
				for _, sel := range uses {
					t.Errorf("%s: os.Stderr under internal/; report through a runtime.Event or return an error", fset.Position(sel.Pos()))
				}
			}
		}
	}
	// A walker that found nothing would pass vacuously.
	if allowedSeen == 0 {
		t.Fatal("the audit saw none of the allowed os.Stderr sites")
	}
}

// TestProfileFamiliesMatchBenchmark: `make profile-allocs` sizes every
// allocation claim, so the Makefile's PROFILE_FAMILIES must be the
// families the sim_campaign workload runs — those of
// exp.DeterministicScenarios, no more and no fewer.
func TestProfileFamiliesMatchBenchmark(t *testing.T) {
	got := profileFamilies(t)
	var want []string
	for _, sc := range exp.DeterministicScenarios() {
		if !slices.Contains(want, sc.Family) {
			want = append(want, sc.Family)
		}
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("Makefile PROFILE_FAMILIES = %v, but exp.DeterministicScenarios runs %v", got, want)
	}
}

// profileFamilies returns the Makefile's PROFILE_FAMILIES: the campaign
// families `make profile-allocs` and the allocation ledger run.
func profileFamilies(t *testing.T) []string {
	t.Helper()
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(makefile), "\n") {
		if name, value, ok := strings.Cut(line, "="); ok && strings.TrimSpace(name) == "PROFILE_FAMILIES" {
			got = strings.Fields(value)
		}
	}
	return got
}

// mdCitation matches a Markdown file name cited in prose.
var mdCitation = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)

// TestCommentCitationsResolve: every Markdown file a comment in the
// module's non-test code cites exists, relative to the module root or to
// the citing file's directory. A comment that sends its reader to a
// missing document carries no argument.
func TestCommentCitationsResolve(t *testing.T) {
	fset, pkgs := moduleSources(t)
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	cited := 0
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, name := range mdCitation.FindAllString(cg.Text(), -1) {
					cited++
					if !exists(name) && !exists(filepath.Join(p.Dir, name)) {
						t.Errorf("%s: cites %s, which the repository does not have", fset.Position(cg.Pos()), name)
					}
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("found no .md citation at all: the check is vacuous")
	}
}

// TestBenchmarkModuleVets runs go vet over benchmark/, which is its own
// module, so `go test ./...` here never compiles it although it calls
// this module's internal packages. Its go.mod replaces btr with ../, so
// the check needs no network; GOPROXY=off makes sure of it.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and vets the benchmark module")
	}
	cmd := exec.Command("go", "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}
