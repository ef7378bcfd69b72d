package sig

// Verification memoization — the crypto fast path.
//
// Soundness. ed25519 verification is deterministic: for a fixed (public
// key, message, signature) triple, Verify always returns the same
// boolean. Memoizing this pure function therefore cannot change any
// result — only the host CPU time spent recomputing it. Two further rules
// keep the memo sound under adversarial input:
//
//   - Positive entries only. A cache hit asserts "this exact triple
//     verified before". Failures are never cached, so garbage signatures
//     pay the full verification price and leave no trace. Statements a
//     Byzantine node *validly signs* (e.g. its endorsement over a bogus
//     blob) can enter the memo — that is useful, not harmful: the same
//     flood frame is checked by every neighbor, and the later checks hit.
//     What bounds the exposure is the shard cap, and what makes eviction
//     safe is that entries only ever accelerate: a flooder churning a
//     shard to its cap costs recomputation time, never correctness, and
//     the per-neighbor rate limit (§4.3) bounds how fast it can churn.
//
//   - Full-triple keys. The key binds the public key, the SHA-256 digest
//     of the message, and the complete 64-byte signature, so a hit can
//     never be confused across signers, messages, or (malleable) signature
//     encodings. Since keys are derived from the registry seed, two
//     registries built from the same seed share keys on purpose: that is
//     what lets campaign trials replaying the same seeded deployment reuse
//     each other's verification work.
//
// Signing is not memoized: a node endorses each evidence blob once
// (its seenEvidence set), so within a deployment a seal never repeats.
//
// The memo is a sharded map behind per-shard RW mutexes — safe for
// concurrent campaign workers — and bounded: a shard that reaches its cap
// is cleared (sound, because entries only ever accelerate).

import (
	"crypto/ed25519"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

const (
	memoShards     = 64 // power of two; shard = first digest byte & mask
	memoShardMask  = memoShards - 1
	verifyShardCap = 2048 // ~128B/key -> <=16MiB worst case across shards
)

// verifyKey is the full verification triple: signer public key, message
// digest, signature.
type verifyKey struct {
	pub [ed25519.PublicKeySize]byte
	dig [sha256.Size]byte
	sig [ed25519.SignatureSize]byte
}

type verifyShard struct {
	mu sync.RWMutex
	m  map[verifyKey]struct{}
}

// VerifyMemo is a sharded, concurrency-safe, positive-entry-only cache of
// successful ed25519 verifications. The zero value is not usable; call
// NewVerifyMemo.
type VerifyMemo struct {
	shards [memoShards]verifyShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewVerifyMemo returns an empty memo.
func NewVerifyMemo() *VerifyMemo {
	m := &VerifyMemo{}
	for i := range m.shards {
		m.shards[i].m = make(map[verifyKey]struct{})
	}
	return m
}

// Verify checks sig over msg under pub, consulting the memo first. The
// result is identical to ed25519.Verify for every input (see the package
// soundness argument); only repeated successful verifications get cheaper.
func (m *VerifyMemo) Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	if len(pub) != ed25519.PublicKeySize || len(sig) != ed25519.SignatureSize {
		return false
	}
	var k verifyKey
	copy(k.pub[:], pub)
	k.dig = sha256.Sum256(msg)
	copy(k.sig[:], sig)
	sh := &m.shards[k.dig[0]&memoShardMask]
	sh.mu.RLock()
	_, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		m.hits.Add(1)
		return true
	}
	m.misses.Add(1)
	if !ed25519.Verify(pub, msg, sig) {
		return false // never cached: positive entries only
	}
	sh.mu.Lock()
	if len(sh.m) >= verifyShardCap {
		clear(sh.m) // bounded memory; dropping entries is always sound
	}
	sh.m[k] = struct{}{}
	sh.mu.Unlock()
	return true
}

// Stats returns the cumulative hit/miss counters.
func (m *VerifyMemo) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// --- process-shared instance ---------------------------------------------

var (
	sharedVerify = NewVerifyMemo()
	memosEnabled atomic.Bool
	sealCount    atomic.Uint64 // SealedPayload calls, for MemoStats
)

func init() { memosEnabled.Store(true) }

// ResetMemos drops every entry from the shared verify memo (the hit/miss
// counters keep accumulating). It is a measurement hook — timed runs
// that must start cold call it so one run's warmth cannot leak into the
// next — and is not safe to call concurrently with a benchmark being
// timed.
func ResetMemos() {
	for i := range sharedVerify.shards {
		sh := &sharedVerify.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.mu.Unlock()
	}
}

// SetMemos enables or disables verify-memo attachment for subsequently
// constructed registries and returns the previous setting. Existing
// registries are unaffected. This is a test and measurement hook, not a
// tuning knob: results are identical either way, which
// TestMemosChangeNoOutputByte in internal/exp pins.
func SetMemos(enabled bool) bool { return memosEnabled.Swap(enabled) }

// MemoStats returns the shared verify memo's hit/miss totals since
// process start, and the number of SealedPayload calls as seal misses.
// Seals are never memoized, so sealHits is always 0.
func MemoStats() (verifyHits, verifyMisses, sealHits, sealMisses uint64) {
	verifyHits, verifyMisses = sharedVerify.Stats()
	return verifyHits, verifyMisses, 0, sealCount.Load()
}
