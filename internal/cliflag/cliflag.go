// Package cliflag holds the shared flag-validation helpers the btr
// commands use, so every command rejects a bad flag value the same way:
// loudly, naming the flag, and listing the valid choices. (Before this
// package, btrcampaign -family listed its choices while btrlive -fault
// did not — a typo silently meant "guess from the error-less usage
// dump".)
package cliflag

import (
	"fmt"
	"slices"
	"strings"
)

// OneOf validates that got is one of the valid choices, returning an
// error that names the flag and lists every valid value in sorted
// order.
func OneOf(flagName, got string, valid []string) error {
	for _, v := range valid {
		if got == v {
			return nil
		}
	}
	sorted := append([]string(nil), valid...)
	slices.Sort(sorted)
	return fmt.Errorf("unknown -%s %q (valid: %s)", flagName, got, strings.Join(sorted, ", "))
}

// OneOfSet is OneOf over a set of valid choices.
func OneOfSet(flagName, got string, valid map[string]bool) error {
	choices := make([]string, 0, len(valid))
	for v := range valid {
		choices = append(choices, v)
	}
	return OneOf(flagName, got, choices)
}

// InRange validates an integer flag against [lo, hi], returning an
// error that names the flag and states the valid range.
func InRange(flagName string, got, lo, hi int64) error {
	if got < lo || got > hi {
		return fmt.Errorf("invalid -%s %d (valid: %d..%d)", flagName, got, lo, hi)
	}
	return nil
}
