package live

import (
	"testing"

	"btr/internal/adversary"
	"btr/internal/sig"
	"btr/internal/sim"
)

// TestFloodVerificationBudgetedLive pins that the per-neighbor evidence
// rate limit bounds signature work on a live deployment, not just in the
// kernel's: no executor verifies ahead of the handler's budget. A
// 512-per-period bogus flood from one node of a full mesh may add at
// most EvidenceRateLimit × degree(flooder) memo lookups per flooded
// period over the same deployment run without it.
func TestFloodVerificationBudgetedLive(t *testing.T) {
	const (
		perPeriod = 512
		horizon   = 8
		rateLimit = 16 // the runtime default
	)
	cfg := SaturationConfig{
		Seed: 3, Topo: "full-mesh", Nodes: 8, F: 2,
		Period: 100 * sim.Millisecond, Margin: 50 * sim.Millisecond, Horizon: horizon,
	}
	lookups := func(flood bool) (uint64, int) {
		d, err := saturationDeployment(cfg)
		if err != nil {
			t.Fatalf("deployment: %v", err)
		}
		memo := sig.NewVerifyMemo()
		d.Registry.UseMemos(memo)
		flooder := floodNode(d)
		if flood {
			adversary.FloodBogus(flooder, perPeriod, cfg.Period).Install(d)
		}
		d.Run()
		hits, misses := memo.Stats()
		return hits + misses, len(d.Cfg.Topology.Neighbors(flooder))
	}
	quiet, _ := lookups(false)
	flooded, degree := lookups(true)
	// The flood starts at period 1; receivers' budgets reset at each of
	// their period starts, so at most horizon budget windows see it.
	bound := uint64(rateLimit * degree * horizon)
	extra := int64(flooded) - int64(quiet)
	t.Logf("memo lookups: quiet %d, flooded %d (extra %d, bound %d, flood messages offered %d)",
		quiet, flooded, extra, bound, perPeriod*degree*(horizon-1))
	if extra > int64(bound) {
		t.Fatalf("flood added %d signature lookups, above the budget %d = %d/neighbor × %d neighbors × %d periods",
			extra, bound, rateLimit, degree, horizon)
	}
}
