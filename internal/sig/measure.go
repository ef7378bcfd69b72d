package sig

import (
	"fmt"
	"time"

	"btr/internal/network"
)

// MeasureVerifySpeedup times memoized vs uncached verification of a
// realistic envelope working set (the same statements re-checked at every
// node and every flood hop), returning the best-of-3 ns/op for each path.
// The ratio uncachedNs/cachedNs is the machine-independent verify speedup
// BENCH_campaign.json records in its crypto section and cmd/btrcheckbench
// gates with -min-crypto-speedup (acceptance floor: 2x).
func MeasureVerifySpeedup(msgs int) (cachedNsOp, uncachedNsOp float64) {
	if msgs <= 0 {
		msgs = 64
	}
	const nodes = 8
	r := NewRegistry(0xbeef, nodes)
	r.UseMemos(NewVerifyMemo(), nil) // isolated memo: no shared-state bleed
	envs := make([]Envelope, msgs)
	for i := range envs {
		signer := i % nodes
		envs[i] = r.Seal(network.NodeID(signer), []byte(fmt.Sprintf("record %d payload for verify measurement", i)))
	}
	// Warm the memo once so the cached path measures steady state (every
	// envelope already verified somewhere, as on a flood's later hops).
	for _, e := range envs {
		r.Check(e)
	}
	best := func(f func()) float64 {
		b := 0.0
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			if s := time.Since(start).Seconds(); b == 0 || s < b {
				b = s
			}
		}
		return b * 1e9 / float64(msgs)
	}
	cachedNsOp = best(func() {
		for _, e := range envs {
			if !r.Check(e) {
				panic("sig: cached verify rejected a valid envelope")
			}
		}
	})
	uncachedNsOp = best(func() {
		for _, e := range envs {
			if !r.VerifyUncached(e.Signer, e.Body, e.Sig) {
				panic("sig: uncached verify rejected a valid envelope")
			}
		}
	})
	return cachedNsOp, uncachedNsOp
}
