package exp

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"btr/internal/campaign"
)

// runExp executes one paper experiment in quick mode on one worker.
func runExp(t *testing.T, id string) campaign.ScenarioResult {
	t.Helper()
	for _, sc := range PaperScenarios() {
		if sc.ID == id {
			return campaign.Run([]campaign.Scenario{sc}, campaign.Options{
				Workers: 1,
				Params:  campaign.Params{Seed: 1, Quick: true},
			})[0]
		}
	}
	t.Fatalf("unknown experiment %s", id)
	return campaign.ScenarioResult{}
}

func rendered(r campaign.ScenarioResult) string {
	var b bytes.Buffer
	for _, tb := range r.Tables {
		b.WriteString(tb.String())
	}
	return b.String()
}

func TestE1AllWithinBound(t *testing.T) {
	out := rendered(runExp(t, "E1"))
	if strings.Contains(out, "NO") {
		t.Errorf("E1 has a fault type outside the bound:\n%s", out)
	}
	if !strings.Contains(out, "crash") || !strings.Contains(out, "omission") {
		t.Errorf("E1 missing fault rows:\n%s", out)
	}
}

func TestE2ShowsReplicaGap(t *testing.T) {
	out := rendered(runExp(t, "E2"))
	if !strings.Contains(out, "BFT(3f+1)") || !strings.Contains(out, "BTR") {
		t.Errorf("E2 missing protocols:\n%s", out)
	}
	// f=1: BTR row shows 2 replicas, BFT shows 4.
	if !strings.Contains(out, "BTR") {
		t.Error("no BTR row")
	}
}

func TestE3SpeedOrdering(t *testing.T) {
	res := runExp(t, "E3")
	out := rendered(res)
	if !strings.Contains(out, "min speed") {
		t.Errorf("E3 table malformed:\n%s", out)
	}
	// BFT's relative factor must exceed BTR's: parse rows.
	var btrRel, bftRel string
	for _, row := range res.Tables[0].Rows {
		switch row[1] {
		case "BTR":
			btrRel = row[3]
		case "BFT(3f+1)":
			bftRel = row[3]
		}
	}
	if btrRel == "" || bftRel == "" {
		t.Fatalf("missing rows:\n%s", out)
	}
	if !(bftRel > btrRel) { // "x.xx" strings compare numerically at equal width
		t.Errorf("BFT rel %s not above BTR rel %s", bftRel, btrRel)
	}
}

func TestE4WithinKR(t *testing.T) {
	out := rendered(runExp(t, "E4"))
	if strings.Contains(out, "NO") {
		t.Errorf("E4 exceeded k·R:\n%s", out)
	}
}

func TestE5CritAPreserved(t *testing.T) {
	res := runExp(t, "E5")
	out := rendered(res)
	if strings.Contains(out, "NO") {
		t.Errorf("E5 lost an A-criticality deadline:\n%s", out)
	}
	// Degraded modes must shed D-criticality (cabin) before anything else.
	if !strings.Contains(out, "cabin") {
		t.Errorf("E5 shows no shedding:\n%s", out)
	}
}

func TestE6BoundedUnderFlood(t *testing.T) {
	res := runExp(t, "E6")
	// With the reserved share (0.20 rows), recovery must stay within R at
	// every flood rate.
	for _, row := range res.Tables[0].Rows {
		if row[1] == "0.20" && row[4] == "NO" {
			t.Errorf("E6: flood broke the bound with reservation: %v", row)
		}
	}
}

func TestE7AblationImproves(t *testing.T) {
	res := runExp(t, "E7")
	ab := res.Tables[1]
	if len(ab.Rows) != 2 {
		t.Fatalf("ablation rows: %v", ab.Rows)
	}
	// minimal-diff must move fewer replicas than naive.
	min, err1 := strconv.ParseFloat(ab.Rows[0][1], 64)
	naive, err2 := strconv.ParseFloat(ab.Rows[1][1], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparseable ablation cells: %v %v", ab.Rows[0][1], ab.Rows[1][1])
	}
	if min >= naive {
		t.Errorf("minimal-diff %.1f not below naive %.1f", min, naive)
	}
}

func TestE8BreakdownSums(t *testing.T) {
	res := runExp(t, "E8")
	if len(res.Tables[0].Rows) < 2 {
		t.Fatalf("E8 rows missing")
	}
}

func TestE9PlantSafety(t *testing.T) {
	res := runExp(t, "E9")
	out := rendered(res)
	// Sub-deadline outages survive; super-deadline outages violate.
	t1 := res.Tables[0]
	for _, row := range t1.Rows {
		switch row[2] {
		case "0.5×D":
			if row[3] != "NO" && row[3] != "no" {
				t.Errorf("0.5×D outage should be survivable: %v", row)
			}
		case "2.0×D":
			if row[3] != "yes" {
				t.Errorf("2.0×D outage should violate: %v", row)
			}
		}
	}
	// BTR run kept the envelope.
	if !strings.Contains(out, "envelope violations  0") &&
		!strings.Contains(out, "envelope violations     0") {
		// Column padding varies; check the raw table rows instead.
		found := false
		for _, row := range res.Tables[1].Rows {
			if row[0] == "envelope violations" && row[1] == "0" {
				found = true
			}
		}
		if !found {
			t.Errorf("E9b: envelope violated under BTR:\n%s", out)
		}
	}
}

func TestE10ShapesDistinct(t *testing.T) {
	res := runExp(t, "E10")
	out := rendered(res)
	if !strings.Contains(out, "hard bound") {
		t.Errorf("E10 missing BTR bound:\n%s", out)
	}
	if !strings.Contains(out, "never") {
		t.Errorf("E10 missing unreplicated never-recovers row:\n%s", out)
	}
	if !strings.Contains(out, "eventual only") {
		t.Errorf("E10 missing self-stabilization row:\n%s", out)
	}
}
