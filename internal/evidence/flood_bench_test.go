package evidence

import (
	"bytes"
	"testing"

	"btr/internal/network"
	"btr/internal/sig"
	"btr/internal/sim"
)

// msgEvidence mirrors the runtime's evidence frame tag (the prefix byte a
// flood hop puts in front of the endorsement envelope).
const msgEvidence = 'E'

// floodEvidence builds a realistic wrong-output proof (primary record +
// two attachments) and returns it decoded — i.e. in the state a flood hop
// holds it: wire retained, ID memoized.
func floodEvidence(t testing.TB, reg *sig.Registry) Evidence {
	atts := []sig.Envelope{
		reg.Seal(0, Record{Producer: "s0#0", Logical: "s0", Node: 0, Period: 7, Value: []byte("u")}.Encode()),
		reg.Seal(1, Record{Producer: "s1#0", Logical: "s1", Node: 1, Period: 7, Value: []byte("v")}.Encode()),
	}
	rec := Record{
		Producer: "c#0", Logical: "c", Node: 2, Period: 7,
		SendOff: 3 * sim.Millisecond, Value: []byte("wrong"),
		InputsDigest: DigestEnvelopes(atts),
	}
	ev := Evidence{
		Kind: KindWrongOutput, Accused: 2, Reporter: 3,
		DetectedAt:  42 * sim.Millisecond,
		Primary:     reg.Seal(2, rec.Encode()),
		Attachments: atts,
	}
	dec, err := Decode(ev.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return dec
}

// legacyEncodeEvidence is a frozen copy of the pre-fast-path Encode: it
// re-serializes every nested envelope on every call, exactly as every
// flood hop used to.
func legacyEncodeEvidence(e Evidence) []byte {
	var w buf
	w.u8(uint8(e.Kind))
	w.u32(uint32(e.Accused))
	w.u32(uint32(e.Reporter))
	w.i64(int64(e.DetectedAt))
	legacyEncodeEnvelope := func(env sig.Envelope) []byte {
		out := make([]byte, 0, env.EncodedSize())
		return env.AppendTo(out)
	}
	w.bytes(legacyEncodeEnvelope(e.Primary))
	var secBytes []byte
	if e.Secondary.Sig != nil {
		secBytes = legacyEncodeEnvelope(e.Secondary)
	}
	w.bytes(secBytes)
	var envsW buf
	envsW.u32(uint32(len(e.Attachments)))
	for _, env := range e.Attachments {
		envsW.bytes(legacyEncodeEnvelope(env))
	}
	w.raw(envsW.b)
	return w.b
}

// forwardHop is the steady-state encode-once forwarding path: retained
// wire reuse plus a memoized seal+frame. This is what BTR's evidence
// distributor executes per hop (internal/runtime.forwardEvidence).
func forwardHop(reg *sig.Registry, forwarder network.NodeID, ev Evidence) []byte {
	return reg.SealedPayload(forwarder, msgEvidence, ev.Encode())
}

// legacyHop is the frozen pre-fast-path equivalent: re-encode the
// evidence, sign it fresh, frame with an extra copy.
func legacyHop(reg *sig.Registry, forwarder network.NodeID, ev Evidence) []byte {
	wrapper := reg.Seal(forwarder, legacyEncodeEvidence(ev))
	return append([]byte{msgEvidence}, wrapper.Encode()...)
}

// TestForwardHopMatchesLegacy pins the fast path to the frozen one: both
// produce byte-identical frames.
func TestForwardHopMatchesLegacy(t *testing.T) {
	reg := sig.NewRegistry(21, 4)
	reg.UseMemos(sig.NewVerifyMemo(), sig.NewSealMemo())
	plain := sig.NewRegistry(21, 4)
	plain.UseMemos(nil, nil)
	ev := floodEvidence(t, reg)
	for i := 0; i < 2; i++ { // second pass hits the seal memo
		if !bytes.Equal(forwardHop(reg, 3, ev), legacyHop(plain, 3, ev)) {
			t.Fatalf("pass %d: fast forwarding frame diverges from legacy", i)
		}
	}
}

// TestEvidenceFloodZeroAlloc asserts the acceptance criterion directly:
// the steady-state encode-once forwarding path allocates nothing.
func TestEvidenceFloodZeroAlloc(t *testing.T) {
	reg := sig.NewRegistry(22, 4)
	reg.UseMemos(sig.NewVerifyMemo(), sig.NewSealMemo())
	ev := floodEvidence(t, reg)
	forwardHop(reg, 1, ev) // warm the seal memo
	if allocs := testing.AllocsPerRun(200, func() {
		forwardHop(reg, 1, ev)
	}); allocs != 0 {
		t.Fatalf("steady-state flood hop allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkEvidenceFlood compares one evidence-flood hop on the
// encode-once fast path (retained wire + seal memo; 0 allocs/op steady
// state) against the frozen legacy path (full re-encode + fresh seal).
func BenchmarkEvidenceFlood(b *testing.B) {
	b.Run("encode-once", func(b *testing.B) {
		reg := sig.NewRegistry(23, 4)
		reg.UseMemos(sig.NewVerifyMemo(), sig.NewSealMemo())
		ev := floodEvidence(b, reg)
		forwardHop(reg, 1, ev) // warm
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			forwardHop(reg, 1, ev)
		}
	})
	b.Run("legacy", func(b *testing.B) {
		reg := sig.NewRegistry(23, 4)
		reg.UseMemos(nil, nil)
		ev := floodEvidence(b, reg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			legacyHop(reg, 1, ev)
		}
	})
}

// BenchmarkDigestEnvelopes measures the streamed digest (the per-emit
// commitment computation; an arrival hashes its list view in place).
func BenchmarkDigestEnvelopes(b *testing.B) {
	reg := sig.NewRegistry(24, 4)
	envs := []sig.Envelope{
		reg.Seal(0, Record{Producer: "a#0", Logical: "a", Node: 0, Period: 1, Value: []byte("x")}.Encode()),
		reg.Seal(1, Record{Producer: "b#0", Logical: "b", Node: 1, Period: 1, Value: []byte("y")}.Encode()),
		reg.Seal(2, Record{Producer: "c#0", Logical: "c", Node: 2, Period: 1, Value: []byte("z")}.Encode()),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DigestEnvelopes(envs)
	}
}
