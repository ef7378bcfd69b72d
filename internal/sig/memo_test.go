package sig

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"btr/internal/network"
)

// twoRegistries returns two same-seed registries: memoized and memo-free.
// Same seed means identical keys — the cross-trial sharing case.
func twoRegistries(t *testing.T, seed uint64, n int) (memoized, plain *Registry) {
	t.Helper()
	memoized = NewRegistry(seed, n)
	memoized.UseMemos(NewVerifyMemo())
	plain = NewRegistry(seed, n)
	plain.UseMemos(nil)
	return memoized, plain
}

// TestVerifyMemoDifferential is the memoization soundness property: for
// adversarially mangled inputs — corrupted signatures, wrong signers,
// truncated and extended messages, wrong-length signatures — the
// memoized and unmemoized verification paths return identical
// accept/reject decisions. Each case is checked twice so the second pass
// exercises any entry the first pass cached.
func TestVerifyMemoDifferential(t *testing.T) {
	const nodes = 4
	memoized, plain := twoRegistries(t, 7, nodes)
	check := func(id network.NodeID, msg, sig []byte) bool {
		want := plain.Verify(id, msg, sig)
		for pass := 0; pass < 2; pass++ {
			if got := memoized.Verify(id, msg, sig); got != want {
				t.Logf("id=%d pass=%d: memoized=%v unmemoized=%v", id, pass, got, want)
				return false
			}
		}
		return true
	}
	f := func(msg []byte, signer uint8, mutate uint8, at uint8) bool {
		id := network.NodeID(signer % nodes)
		s := memoized.Seal(id, msg).Sig
		switch mutate % 6 {
		case 0: // pristine
		case 1: // corrupted signature byte
			s[int(at)%len(s)] ^= 0x40
		case 2: // wrong signer
			id = (id + 1) % nodes
		case 3: // truncated message
			if len(msg) > 0 {
				msg = msg[:int(at)%len(msg)]
			}
		case 4: // extended message
			msg = append(append([]byte{}, msg...), at)
		case 5: // truncated signature (wrong length)
			s = s[:ed25519.SignatureSize-1-int(at)%8]
		}
		return check(id, msg, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSealedPayloadDeterministic: SealedPayload is prefix ||
// Seal(signer, body).Encode() for every prefix, sealed in one allocation
// per call, and the frame round-trips as a well-formed envelope.
func TestSealedPayloadDeterministic(t *testing.T) {
	r := NewRegistry(11, 3)
	body := []byte("some evidence blob")
	for _, prefix := range []byte{0xE5, 0xD7, 'E', 0} {
		want := append([]byte{prefix}, r.Seal(1, body).Encode()...)
		if got := r.SealedPayload(1, prefix, body); string(got) != string(want) {
			t.Fatalf("prefix %#x: SealedPayload diverges from fresh seal+frame", prefix)
		}
		if allocs := testing.AllocsPerRun(20, func() { r.SealedPayload(1, prefix, body) }); allocs != 1 {
			t.Fatalf("prefix %#x: SealedPayload allocates %.1f objects/call, want 1", prefix, allocs)
		}
		env, err := ParseEnvelope(want[1:])
		if err != nil || !r.Check(env) || env.Signer != 1 {
			t.Fatalf("prefix %#x: framed seal does not round-trip: %v", prefix, err)
		}
	}
}

// TestVerifyMemoPositiveOnly: failed verifications must not populate the
// memo (an adversary spraying garbage grows nothing).
func TestVerifyMemoPositiveOnly(t *testing.T) {
	r := NewRegistry(3, 2)
	m := NewVerifyMemo()
	r.UseMemos(m)
	msg := []byte("m")
	bad := make([]byte, ed25519.SignatureSize)
	for i := 0; i < 10; i++ {
		bad[0] = byte(i)
		if r.Verify(0, msg, bad) {
			t.Fatal("garbage signature verified")
		}
	}
	for i := range m.shards {
		if n := len(m.shards[i].m); n != 0 {
			t.Fatalf("shard %d holds %d entries after failures only", i, n)
		}
	}
	if hits, _ := m.Stats(); hits != 0 {
		t.Fatalf("hits = %d for failures only", hits)
	}
}

// TestVerifyMemoBounded: a shard that reaches its cap is cleared, and
// correctness is unaffected.
func TestVerifyMemoBounded(t *testing.T) {
	r := NewRegistry(5, 1)
	m := NewVerifyMemo()
	r.UseMemos(m)
	msg := make([]byte, 8)
	for i := 0; i < 3*verifyShardCap; i++ {
		for j := 0; j < 8; j++ {
			msg[j] = byte(i >> (8 * j))
		}
		if !r.Verify(0, msg, r.Seal(0, msg).Sig) {
			t.Fatalf("valid signature rejected at %d", i)
		}
	}
	for i := range m.shards {
		if n := len(m.shards[i].m); n > verifyShardCap {
			t.Fatalf("shard %d grew to %d > cap %d", i, n, verifyShardCap)
		}
	}
}

// TestSharedMemoConcurrentWorkers is the -race stress test of the shared
// memo under concurrent campaign workers: several goroutines, each with
// its own same-seed registry (as campaign trials have), hammer one verify
// memo with overlapping valid and invalid triples; every decision must
// match the memo-free path.
func TestSharedMemoConcurrentWorkers(t *testing.T) {
	const (
		workers = 8
		nodes   = 4
		msgs    = 200
	)
	vm := NewVerifyMemo()
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			reg := NewRegistry(99, nodes) // same seed: shared keys on purpose
			reg.UseMemos(vm)
			plain := NewRegistry(99, nodes)
			plain.UseMemos(nil)
			msg := make([]byte, 16)
			for i := 0; i < msgs; i++ {
				msg[0], msg[1], msg[2] = byte(i), byte(i>>8), byte(w%2) // overlap across workers
				id := network.NodeID(i % nodes)
				s := reg.Seal(id, msg).Sig
				if i%3 == 0 {
					s[10] ^= 0xFF // invalid: must never hit a positive entry
				}
				if got, want := reg.Verify(id, msg, s), plain.Verify(id, msg, s); got != want {
					errs <- "memoized verify diverged under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestResetMemos: entries are dropped, correctness is unaffected, and
// the counters keep accumulating.
func TestResetMemos(t *testing.T) {
	prev := SetMemos(true)
	defer SetMemos(prev)
	r := NewRegistry(13, 2) // attaches the shared verify memo
	env := r.Seal(0, []byte("payload"))
	if !r.Check(env) || !r.Check(env) {
		t.Fatal("valid envelope rejected")
	}
	h0, m0, _, _ := MemoStats()
	ResetMemos()
	if !r.Check(env) { // re-verifies (miss), then works as before
		t.Fatal("valid envelope rejected after reset")
	}
	h1, m1, _, _ := MemoStats()
	if h1 < h0 || m1 <= m0 {
		t.Fatalf("counters went backwards or no miss recorded: hits %d->%d misses %d->%d", h0, h1, m0, m1)
	}
}

// TestCheckBatch: all-valid returns (-1,true); the index of the first
// invalid envelope is reported otherwise.
func TestCheckBatch(t *testing.T) {
	r := NewRegistry(1, 3)
	envs := []Envelope{r.Seal(0, []byte("a")), r.Seal(1, []byte("b")), r.Seal(2, []byte("c"))}
	if i, ok := r.CheckBatch(envs); !ok || i != -1 {
		t.Fatalf("valid batch rejected (i=%d ok=%v)", i, ok)
	}
	envs[1].Sig[0] ^= 1
	if i, ok := r.CheckBatch(envs); ok || i != 1 {
		t.Fatalf("corrupt batch: got (i=%d ok=%v), want (1,false)", i, ok)
	}
	if i, ok := r.CheckBatch(nil); !ok || i != -1 {
		t.Fatalf("empty batch: got (i=%d ok=%v)", i, ok)
	}
}

const batchTestNodes = 8

// batchTestRegistry returns a registry with an isolated verify memo, so
// hit counts are not disturbed by other tests sharing the process memo.
func batchTestRegistry() *Registry {
	r := NewRegistry(0xba7c4, batchTestNodes)
	r.UseMemos(NewVerifyMemo())
	return r
}

func validBatch(r *Registry, n int, tag string) []Envelope {
	envs := make([]Envelope, n)
	for i := range envs {
		envs[i] = r.Seal(network.NodeID(i%batchTestNodes), []byte(fmt.Sprintf("%s record %d", tag, i)))
	}
	return envs
}

// corruptBatch applies one adversarial corruption class — flipped
// signature bit, wrong (real) signer, truncated message, truncated
// signature — to envelope i of a valid batch.
func corruptBatch(envs []Envelope, i int, class uint8, bit uint16) {
	e := &envs[i]
	switch class % 4 {
	case 0:
		if len(e.Sig) > 0 {
			s := append([]byte(nil), e.Sig...)
			s[int(bit)%len(s)] ^= 1 << (bit % 8)
			e.Sig = s
		}
	case 1:
		e.Signer = (e.Signer + 1 + network.NodeID(bit)%(batchTestNodes-1)) % batchTestNodes
	case 2:
		if len(e.Body) > 0 {
			e.Body = e.Body[:int(bit)%len(e.Body)]
		}
	case 3:
		if len(e.Sig) > 0 {
			e.Sig = e.Sig[:int(bit)%len(e.Sig)]
		}
	}
}

// TestQuickBatchEquivalentToSequential is the differential property: on
// randomly corrupted batches, the memoized CheckBatch returns the same
// (index, ok) as a per-envelope crypto/ed25519 sweep through a memo-free
// registry over the same keys, and re-running it against the memo it
// just primed does not change the verdict.
func TestQuickBatchEquivalentToSequential(t *testing.T) {
	ref := batchTestRegistry()
	ref.UseMemos(nil)
	property := func(n uint8, corrupt []uint32) bool {
		size := 1 + int(n)%48
		r := batchTestRegistry()
		envs := validBatch(r, size, "quick")
		for _, c := range corrupt {
			corruptBatch(envs, int(c>>16)%size, uint8(c>>8), uint16(c))
		}
		want := -1
		for i, e := range envs {
			if !ref.Verify(e.Signer, e.Body, e.Sig) {
				want = i
				break
			}
		}
		for pass := 0; pass < 2; pass++ {
			if i, ok := r.CheckBatch(envs); i != want || ok != (want < 0) {
				t.Logf("size=%d corrupt=%v pass=%d: CheckBatch=(%d,%v), uncached first failure %d",
					size, corrupt, pass, i, ok, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckBatchPrimesMemo: a batch sweep leaves every accepted envelope
// in the memo, so the handler's later per-envelope Check calls hit.
func TestCheckBatchPrimesMemo(t *testing.T) {
	r := batchTestRegistry()
	envs := validBatch(r, 24, "prime")
	if i, ok := r.CheckBatch(envs); !ok {
		t.Fatalf("CheckBatch rejected valid batch at %d", i)
	}
	hits0, _ := r.memo.Stats()
	for _, e := range envs {
		if !r.Check(e) {
			t.Fatalf("memoized Check rejected an envelope CheckBatch accepted")
		}
	}
	hits, _ := r.memo.Stats()
	if hits-hits0 != uint64(len(envs)) {
		t.Fatalf("CheckBatch did not prime the memo: %d hits for %d envelopes", hits-hits0, len(envs))
	}
}

func TestCheckBatchLocatesFirstCulprit(t *testing.T) {
	r := batchTestRegistry()
	envs := validBatch(r, 24, "culprit")
	for _, idx := range []int{0, 11, 23} {
		bad := make([]Envelope, len(envs))
		copy(bad, envs)
		s := append([]byte(nil), bad[idx].Sig...)
		s[0] ^= 1
		bad[idx].Sig = s
		if i, ok := r.CheckBatch(bad); ok || i != idx {
			t.Fatalf("CheckBatch(bad@%d) = (%d, %v), want (%d, false)", idx, i, ok, idx)
		}
	}
}

func TestCheckBatchOutOfRangeSigner(t *testing.T) {
	r := batchTestRegistry()
	envs := validBatch(r, 8, "range")
	envs[5].Signer = batchTestNodes + 3
	if i, ok := r.CheckBatch(envs); ok || i != 5 {
		t.Fatalf("CheckBatch with out-of-range signer = (%d, %v), want (5, false)", i, ok)
	}
}

// TestConcurrentBatchIngest is the -race stress: many goroutines sweeping
// overlapping envelope sets, valid and poisoned, against one shared memo,
// mixed with per-envelope Check calls.
func TestConcurrentBatchIngest(t *testing.T) {
	r := batchTestRegistry()
	envs := validBatch(r, 64, "stress")
	poison := make([]Envelope, len(envs))
	copy(poison, envs)
	s := append([]byte(nil), poison[31].Sig...)
	s[10] ^= 4
	poison[31].Sig = s

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < 30; it++ {
				lo := rng.Intn(32)
				hi := lo + 8 + rng.Intn(24)
				if i, ok := r.CheckBatch(envs[lo:hi]); !ok {
					t.Errorf("goroutine %d: valid slice [%d:%d) rejected at %d", g, lo, hi, i)
					return
				}
				if i, ok := r.CheckBatch(poison[lo:hi]); 31 >= lo && 31 < hi {
					if ok || i != 31-lo {
						t.Errorf("goroutine %d: poisoned slice [%d:%d) = (%d,%v)", g, lo, hi, i, ok)
						return
					}
				} else if !ok {
					t.Errorf("goroutine %d: clean poison slice [%d:%d) rejected at %d", g, lo, hi, i)
					return
				}
				if !r.Check(envs[rng.Intn(len(envs))]) {
					t.Errorf("goroutine %d: concurrent Check rejected valid envelope", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSetMemos: registries built while the verify memo is disabled run
// uncached (and still verify correctly).
func TestSetMemos(t *testing.T) {
	prev := SetMemos(false)
	defer SetMemos(prev)
	r := NewRegistry(1, 2)
	if r.memo != nil {
		t.Fatal("verify memo attached while disabled")
	}
	env := r.Seal(0, []byte("x"))
	if !r.Check(env) {
		t.Fatal("uncached registry rejects its own seal")
	}
}
