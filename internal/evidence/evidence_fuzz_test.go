package evidence

import (
	"bytes"
	"testing"

	"btr/internal/network"
	"btr/internal/sig"
)

// FuzzEvidenceParse checks the in-place evidence parser against the
// owning one: Parse and Decode accept and reject the same blobs and
// agree on every field and on ID, a blob either side accepts re-encodes
// field by field to itself, and every view Parse hands out (the retained
// wire, each Body and Sig) is capacity-capped, so appending to one
// reallocates instead of writing into the blob.
func FuzzEvidenceParse(f *testing.F) {
	reg := sig.NewRegistry(5, 4)
	wrong := floodEvidence(f, reg)
	f.Add(bytes.Clone(wrong.Encode()))
	e1 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v1"), nil)
	e2 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v2"), nil)
	f.Add(Evidence{Kind: KindEquivocation, Accused: 2, Reporter: 0, Primary: e1, Secondary: e2}.Encode())
	acc := Accusation{Reporter: 1, Path: []network.NodeID{1, 2, 3}, Producer: "a#0", Consumer: "b#0", Period: 4}
	f.Add(Evidence{Kind: KindPathAccusation, Accused: -1, Reporter: 1, Primary: reg.Seal(1, acc.Encode())}.Encode())
	wire := wrong.Encode()
	f.Add(wire[:len(wire)-1])
	f.Add([]byte{})
	f.Add([]byte{byte(KindBogus), 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Parse a copy with a guard byte in its spare capacity: an
		// uncapped view would let an append overwrite it.
		blob := append(bytes.Clone(data), 0xAA)[:len(data)]
		dec, derr := Decode(data)
		par, perr := Parse(blob)
		if (derr == nil) != (perr == nil) {
			t.Fatalf("Decode error %v, Parse error %v", derr, perr)
		}
		if derr != nil {
			return
		}
		if dec.Kind != par.Kind || dec.Accused != par.Accused || dec.Reporter != par.Reporter ||
			dec.DetectedAt != par.DetectedAt || !sameEnvelope(dec.Primary, par.Primary) ||
			!sameEnvelope(dec.Secondary, par.Secondary) || len(dec.Attachments) != len(par.Attachments) ||
			dec.ID() != par.ID() || !bytes.Equal(dec.Encode(), par.Encode()) {
			t.Fatalf("Decode %+v, Parse %+v", dec, par)
		}
		for i := range dec.Attachments {
			if !sameEnvelope(dec.Attachments[i], par.Attachments[i]) {
				t.Fatalf("attachment %d: Decode %+v, Parse %+v", i, dec.Attachments[i], par.Attachments[i])
			}
		}
		fresh := Evidence{Kind: par.Kind, Accused: par.Accused, Reporter: par.Reporter,
			DetectedAt: par.DetectedAt, Primary: par.Primary, Secondary: par.Secondary,
			Attachments: par.Attachments}
		if !bytes.Equal(fresh.Encode(), data) || fresh.ID() != par.ID() {
			t.Fatalf("parse/encode not canonical:\n in: %x\nout: %x", data, fresh.Encode())
		}
		views := [][]byte{par.Encode(), par.Primary.Body, par.Primary.Sig, par.Secondary.Body, par.Secondary.Sig}
		for _, a := range par.Attachments {
			views = append(views, a.Body, a.Sig)
		}
		for i, v := range views {
			if cap(v) != len(v) {
				t.Fatalf("view %d: cap %d > len %d", i, cap(v), len(v))
			}
			_ = append(v, 0xee)
		}
		if !bytes.Equal(blob, data) || blob[:len(data)+1][len(data)] != 0xAA {
			t.Fatal("an append to a parsed view wrote into the blob")
		}
	})
}

// sameEnvelope reports whether two envelopes agree field for field.
func sameEnvelope(a, b sig.Envelope) bool {
	return a.Signer == b.Signer && bytes.Equal(a.Body, b.Body) && bytes.Equal(a.Sig, b.Sig)
}

// referenceParseEnvelopes is the slice-based list parser EnvelopeList
// replaced, kept as the reference its view must agree with.
func referenceParseEnvelopes(b []byte) ([]sig.Envelope, error) {
	rd := &reader{b: b}
	n := int(rd.u32())
	if rd.err != nil {
		return nil, rd.err
	}
	if n > 1<<16 {
		return nil, errShort
	}
	var envs []sig.Envelope
	for i := 0; i < n; i++ {
		eb := rd.lenView()
		if rd.err != nil {
			return nil, rd.err
		}
		e, err := sig.ParseEnvelope(eb)
		if err != nil {
			return nil, err
		}
		envs = append(envs, e)
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return envs, nil
}

// FuzzEnvelopeList checks the in-place list view against the slice-based
// reference: both accept and reject the same bytes, the view yields the
// reference's envelopes in order, aliasing the same bytes (All, and
// Envelopes, the collector ParseEnvelopes returns), an early stop ends the walk, and Digest equals
// DigestEnvelopes of the parsed list.
func FuzzEnvelopeList(f *testing.F) {
	reg := sig.NewRegistry(5, 4)
	for _, k := range []int{0, 1, 3} {
		envs := make([]sig.Envelope, k)
		for i := range envs {
			envs[i] = reg.Seal(network.NodeID(i), bytes.Repeat([]byte{byte(i)}, i*7))
		}
		list := EncodeEnvelopes(envs)
		f.Add(list)
		f.Add(list[:len(list)-1])
		f.Add(append(bytes.Clone(list), 0))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{0, 0, 1, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := referenceParseEnvelopes(data)
		l, err := ParseEnvelopeList(data)
		if (werr == nil) != (err == nil) {
			t.Fatalf("reference error %v, view error %v", werr, err)
		}
		if _, serr := ParseEnvelopes(data); (serr == nil) != (err == nil) {
			t.Fatalf("ParseEnvelopes error %v, view error %v", serr, err)
		}
		if err != nil {
			return
		}
		if l.Len() != len(want) {
			t.Fatalf("view holds %d envelopes, reference %d", l.Len(), len(want))
		}
		i := 0
		l.All(func(e sig.Envelope) bool {
			if !sameEnvelope(e, want[i]) || &e.Sig[0] != &want[i].Sig[0] {
				t.Fatalf("envelope %d: view %+v, reference %+v", i, e, want[i])
			}
			i++
			return true
		})
		if i != len(want) {
			t.Fatalf("All yielded %d envelopes, want %d", i, len(want))
		}
		got := l.Envelopes()
		for i := range want {
			if !sameEnvelope(got[i], want[i]) {
				t.Fatalf("Envelopes()[%d] = %+v, reference %+v", i, got[i], want[i])
			}
		}
		if len(want) > 1 {
			calls := 0
			l.All(func(sig.Envelope) bool { calls++; return false })
			if calls != 1 {
				t.Fatalf("All called yield %d times after it returned false", calls)
			}
		}
		if l.Digest() != DigestEnvelopes(want) {
			t.Fatal("Digest differs from DigestEnvelopes of the parsed list")
		}
	})
}
