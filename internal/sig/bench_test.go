package sig

import (
	"fmt"
	"testing"

	"btr/internal/network"
)

// benchEnvelopes builds a working set of sealed statements resembling a
// period's worth of records crossing a deployment.
func benchEnvelopes(n int) (*Registry, []Envelope) {
	r := NewRegistry(0xbec4, 8)
	envs := make([]Envelope, n)
	for i := range envs {
		envs[i] = r.Seal(network.NodeID(i%8), []byte(fmt.Sprintf("record %d body", i)))
	}
	return r, envs
}

// BenchmarkVerifyMemo measures the memoized steady state: every envelope
// in the working set has verified before (as on every flood hop after
// the first). Compare with BenchmarkVerifyUncached.
func BenchmarkVerifyMemo(b *testing.B) {
	r, envs := benchEnvelopes(64)
	r.UseMemos(NewVerifyMemo())
	for _, e := range envs { // warm
		r.Check(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.Check(envs[i%len(envs)]) {
			b.Fatal("valid envelope rejected")
		}
	}
}

// BenchmarkVerifyUncached is the memo-free reference: full ed25519
// verification on every call, through a registry with no memos.
func BenchmarkVerifyUncached(b *testing.B) {
	r, envs := benchEnvelopes(64)
	r.UseMemos(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := envs[i%len(envs)]
		if !r.Verify(e.Signer, e.Body, e.Sig) {
			b.Fatal("valid envelope rejected")
		}
	}
}

// BenchmarkSealedPayload measures the one seal path: a fresh signature
// sealed in place into one exact-size frame per call.
func BenchmarkSealedPayload(b *testing.B) {
	r, _ := benchEnvelopes(1)
	body := []byte("evidence blob with some realistic length padding")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SealedPayload(network.NodeID(i%8), 'E', body)
	}
}
