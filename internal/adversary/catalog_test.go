package adversary

import "testing"

// TestCatalogInvariants: names are unique and resolvable, "none" stays
// free for the CLIs' no-fault choice, and exactly the process-level
// faults lack an in-process Build.
func TestCatalogInvariants(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range Catalog {
		if seen[b.Name] {
			t.Errorf("duplicate catalog name %q", b.Name)
		}
		seen[b.Name] = true
		if b.Name == "none" {
			t.Error(`catalog entry named "none" collides with the no-fault choice`)
		}
		if (b.Build == nil) != (b.Scope == Process) {
			t.Errorf("%s: Build nil = %v, but process scope = %v", b.Name, b.Build == nil, b.Scope == Process)
		}
		if got, ok := Lookup(b.Name); !ok || got.Name != b.Name {
			t.Errorf("Lookup(%q) = %q, %v", b.Name, got.Name, ok)
		}
	}
	if _, ok := Lookup("none"); ok {
		t.Error(`Lookup("none") found an entry`)
	}
	if got := len(Names(nil)); got != len(Catalog) {
		t.Errorf("Names(nil) lists %d behaviors, the catalog has %d", got, len(Catalog))
	}
}
