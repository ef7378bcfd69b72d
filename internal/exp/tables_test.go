package exp

import (
	"bufio"
	"crypto/md5"
	"fmt"
	"os"
	"strings"
	"testing"

	"btr/internal/campaign"
)

// renderFamily returns what `btrcampaign -quick -workers 1 -seed seed
// -family family | grep -vi wall` prints: every scenario of the family in
// table order, with the lines that carry wall-clock time dropped.
func renderFamily(t *testing.T, family string, seed uint64) string {
	t.Helper()
	var selected []campaign.Scenario
	for _, sc := range Scenarios() {
		if sc.Family == family {
			selected = append(selected, sc)
		}
	}
	if len(selected) == 0 {
		t.Fatalf("no scenario in family %q", family)
	}
	var b strings.Builder
	for _, r := range campaign.Run(selected, campaign.Options{
		Workers: 1,
		Params:  campaign.Params{Seed: seed, Quick: true, Trials: 1},
	}) {
		for _, tr := range r.Trials {
			if tr.Err != nil {
				t.Errorf("%s/%s failed: %v", r.ID, tr.Name, tr.Err)
			}
		}
		WriteResult(&b, r)
	}
	var out strings.Builder
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		if !strings.Contains(strings.ToLower(line), "wall") {
			out.WriteString(line)
		}
	}
	return out.String()
}

// TestTablesMatchPinnedHashes pins every byte-deterministic family's
// rendered tables to the md5 sums in testdata/tables.md5. A change that
// means to alter a table edits that file and says why.
func TestTablesMatchPinnedHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("renders four campaign families at two seeds")
	}
	f, err := os.Open("testdata/tables.md5")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var family, want string
		var seed uint64
		if _, err := fmt.Sscanf(line, "%s %d %s", &family, &seed, &want); err != nil {
			t.Fatalf("testdata/tables.md5: bad line %q: %v", line, err)
		}
		pins++
		got := fmt.Sprintf("%x", md5.Sum([]byte(renderFamily(t, family, seed))))
		if got != want {
			t.Errorf("family %s seed %d: tables hash to %s, pinned %s", family, seed, got, want)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if pins == 0 {
		t.Fatal("testdata/tables.md5 pins nothing")
	}
}
