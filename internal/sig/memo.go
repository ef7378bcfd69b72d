package sig

// Verification and seal memoization — the crypto fast path.
//
// Soundness. ed25519 is deterministic in both directions: for a fixed
// (public key, message, signature) triple, Verify always returns the same
// boolean, and for a fixed (private key, message) pair, Sign always
// returns the same signature. Memoizing these pure functions therefore
// cannot change any result — only the host CPU time spent recomputing
// them. Two further rules keep the memo sound under adversarial input:
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
// The memos are sharded maps behind per-shard RW mutexes — safe for
// concurrent campaign workers — and bounded: a shard that reaches its cap
// is cleared (sound, because entries only ever accelerate).

import (
	"crypto/ed25519"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"btr/internal/network"
)

const (
	memoShards     = 64 // power of two; shard = first digest byte & mask
	memoShardMask  = memoShards - 1
	verifyShardCap = 2048 // ~128B/key -> <=16MiB worst case across shards
	sealShardCap   = 256  // entries carry payload bytes; keep small
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

// sealKey identifies a deterministic seal: signer public key, payload
// prefix byte, and message digest.
type sealKey struct {
	pub    [ed25519.PublicKeySize]byte
	prefix byte
	dig    [sha256.Size]byte
}

type sealShard struct {
	mu sync.RWMutex
	m  map[sealKey][]byte
}

// SealMemo caches the fully framed wire bytes of deterministic seals:
// prefix || Envelope{signer, body, Sign(body)}.Encode(). Because ed25519
// signing is deterministic, re-sealing an identical body always yields
// identical bytes, so re-sent payloads (evidence re-floods, replayed
// campaign trials) become a shared-slice lookup; a miss is sealed in
// place like every other envelope. Callers must treat returned slices as
// immutable — they are shared.
type SealMemo struct {
	shards [memoShards]sealShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// NewSealMemo returns an empty memo.
func NewSealMemo() *SealMemo {
	m := &SealMemo{}
	for i := range m.shards {
		m.shards[i].m = make(map[sealKey][]byte)
	}
	return m
}

// payload consults the memo for r's framed seal of body by signer; on a
// miss it seals in place (Registry.sealPayload) and caches the frame.
// The returned slice is shared and must not be mutated.
func (m *SealMemo) payload(r *Registry, signer network.NodeID, prefix byte, body []byte) []byte {
	var k sealKey
	copy(k.pub[:], r.pubs[signer])
	k.prefix = prefix
	k.dig = sha256.Sum256(body)
	sh := &m.shards[k.dig[0]&memoShardMask]
	sh.mu.RLock()
	p, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		m.hits.Add(1)
		return p
	}
	m.misses.Add(1)
	p = r.sealPayload(signer, prefix, body)
	sh.mu.Lock()
	if len(sh.m) >= sealShardCap {
		clear(sh.m)
	}
	sh.m[k] = p
	sh.mu.Unlock()
	return p
}

// Stats returns the cumulative hit/miss counters.
func (m *SealMemo) Stats() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// --- process-shared instances ----------------------------------------------

var (
	sharedVerify = NewVerifyMemo()
	sharedSeal   = NewSealMemo()
	memosEnabled atomic.Bool
)

func init() { memosEnabled.Store(true) }

// ResetMemos drops every entry from the shared memos (the hit/miss
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
	for i := range sharedSeal.shards {
		sh := &sharedSeal.shards[i]
		sh.mu.Lock()
		clear(sh.m)
		sh.mu.Unlock()
	}
}

// SetMemos enables or disables memo attachment for subsequently
// constructed registries and returns the previous setting. Existing
// registries are unaffected. This is a test and measurement hook, not a
// tuning knob: results are identical either way, which
// TestMemosChangeNoOutputByte in internal/exp pins.
func SetMemos(enabled bool) bool { return memosEnabled.Swap(enabled) }

// MemoStats sums the shared memos' counters: verification and seal
// hit/miss totals since process start.
func MemoStats() (verifyHits, verifyMisses, sealHits, sealMisses uint64) {
	verifyHits, verifyMisses = sharedVerify.Stats()
	sealHits, sealMisses = sharedSeal.Stats()
	return verifyHits, verifyMisses, sealHits, sealMisses
}
