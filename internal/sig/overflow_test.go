package sig

import (
	"strings"
	"testing"
)

// mustPanicMaxBody asserts fn panics with the named MaxBody invariant.
// Pre-guard code silently truncated the uint32 length field instead, so
// this test fails there.
func mustPanicMaxBody(t *testing.T, fn func()) {
	t.Helper()
	mustPanic(t, "invariant MaxBody", fn)
}

// mustPanic asserts fn panics with a message naming want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one naming %q", want)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one naming %q", r, want)
		}
	}()
	fn()
}

// TestEnvelopeEncodeAtBodyBoundary proves the boundary is exact: a
// MaxBody-sized body encodes and round-trips; one more byte panics.
func TestEnvelopeEncodeAtBodyBoundary(t *testing.T) {
	e := Envelope{Signer: 1, Body: make([]byte, MaxBody), Sig: make([]byte, SignatureSize)}
	b := e.AppendTo(make([]byte, 0, e.EncodedSize()))
	got, err := ParseEnvelope(b)
	if err != nil {
		t.Fatalf("decode at boundary: %v", err)
	}
	if len(got.Body) != MaxBody {
		t.Fatalf("round-tripped body %d, want %d", len(got.Body), MaxBody)
	}

	e.Body = make([]byte, MaxBody+1)
	mustPanicMaxBody(t, func() { e.AppendTo(nil) })
	mustPanicMaxBody(t, func() { AppendEnvelopeHeader(nil, 1, MaxBody+1) })
}

// TestDecodeEnvelopeRejectsOversizeLength proves the decode side is
// symmetric: ParseEnvelope rejects a hand-forged frame claiming a body
// beyond MaxBody.
func TestDecodeEnvelopeRejectsOversizeLength(t *testing.T) {
	e := Envelope{Signer: 1, Body: []byte("ok"), Sig: make([]byte, SignatureSize)}
	b := e.Encode()
	b[4], b[5], b[6], b[7] = 0xff, 0xff, 0xff, 0x7f // length = 2GiB-ish
	if _, err := ParseEnvelope(b); err == nil {
		t.Fatal("oversize length accepted")
	}
}

// TestSealedPayloadGuardsBody pins the same invariant on the seal path:
// a MaxBody body seals in place and verifies, one more byte panics, and
// so does a body that outgrows its header.
func TestSealedPayloadGuardsBody(t *testing.T) {
	r := NewRegistry(1, 2)
	env, p := r.SignAppended(append(AppendEnvelopeHeader(nil, 1, MaxBody), make([]byte, MaxBody)...), 0)
	got, err := ParseEnvelope(p)
	if err != nil || len(got.Body) != MaxBody || !r.Check(env) || &got.Sig[0] != &env.Sig[0] {
		t.Fatalf("in-place seal at the boundary: err %v, body %d", err, len(got.Body))
	}
	mustPanicMaxBody(t, func() { r.SealedPayload(0, 'D', make([]byte, MaxBody+1)) })
	over := append(AppendEnvelopeHeader(nil, 1, MaxBody), make([]byte, MaxBody+1)...)
	mustPanic(t, "invariant envelope length", func() { r.SignAppended(over, 0) })
}
