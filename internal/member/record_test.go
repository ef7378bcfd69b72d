package member

import (
	"bytes"
	"testing"

	"btr/internal/network"
	"btr/internal/sig"
	"btr/internal/sim"
)

func sampleRecord() Record {
	return Record{
		Num:        3,
		Prev:       [16]byte{1, 2, 3, 4},
		ActivateAt: 2500 * sim.Millisecond,
		Members:    []network.NodeID{0, 1, 2, 4, 7},
		AddLinks:   []network.Link{{A: 4, B: 7, Bandwidth: 20_000_000, Prop: 50}},
		DropLinks:  [][2]network.NodeID{{3, 0}},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	r := sampleRecord()
	enc := r.Encode()
	if len(enc) != r.EncodedSize() {
		t.Fatalf("EncodedSize %d != len(Encode) %d", r.EncodedSize(), len(enc))
	}
	got, err := DecodeRecord(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("decode∘encode is not the identity")
	}
	if got.Num != r.Num || got.ActivateAt != r.ActivateAt || got.Prev != r.Prev {
		t.Fatalf("fields mangled: %+v", got)
	}
	if got.ID() != r.ID() {
		t.Fatal("ID not stable across round trip")
	}
}

func TestRecordDecodeRejectsMalformed(t *testing.T) {
	r := sampleRecord()
	enc := r.Encode()
	cases := map[string][]byte{
		"empty":        {},
		"magic":        append([]byte("xx1"), enc[3:]...),
		"truncated":    enc[:len(enc)-3],
		"trailing":     append(append([]byte(nil), enc...), 0),
		"emptyMembers": Record{Num: 1, Members: nil}.Encode(),
	}
	// Unsorted members.
	bad := sampleRecord()
	bad.Members = []network.NodeID{2, 1}
	cases["unsorted"] = bad.Encode()
	dup := sampleRecord()
	dup.Members = []network.NodeID{1, 1}
	cases["duplicate"] = dup.Encode()
	selfLink := sampleRecord()
	selfLink.AddLinks = []network.Link{{A: 2, B: 2, Bandwidth: 5, Prop: 1}}
	cases["selfLink"] = selfLink.Encode()
	zeroBW := sampleRecord()
	zeroBW.AddLinks = []network.Link{{A: 1, B: 2, Bandwidth: 0, Prop: 1}}
	cases["zeroBandwidth"] = zeroBW.Encode()
	for name, b := range cases {
		if _, err := DecodeRecord(b); err == nil {
			t.Errorf("%s: malformed record decoded without error", name)
		}
	}
}

func TestSealOpen(t *testing.T) {
	reg := sig.NewRegistry(1, 6)
	r := sampleRecord()
	sealed := Seal(reg, r)
	got, err := Open(reg, sealed)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if got.ID() != r.ID() {
		t.Fatal("sealed record mangled")
	}
	// Bit flip anywhere (body or signature) must be rejected.
	for _, i := range []int{0, 10, len(sealed) - sig.SignatureSize - 1, len(sealed) - 1} {
		mut := append([]byte(nil), sealed...)
		mut[i] ^= 0x40
		if _, err := Open(reg, mut); err == nil {
			t.Errorf("bit flip at %d accepted", i)
		}
	}
	// Truncation must be rejected.
	for _, n := range []int{0, 5, len(sealed) - 1} {
		if _, err := Open(reg, sealed[:n]); err == nil {
			t.Errorf("truncation to %d accepted", n)
		}
	}
	// A node key must not seal records (only the operator can).
	forged := append(r.Encode(), reg.Seal(0, r.Encode()).Sig...)
	if _, err := Open(reg, forged); err == nil {
		t.Fatal("node-signed record accepted as operator-sealed")
	}
}

func TestWithActivationChangesIDOnly(t *testing.T) {
	r := sampleRecord()
	c := r.WithActivation(9999)
	if c.ID() == r.ID() {
		t.Fatal("activation instant not covered by the record ID")
	}
	if c.Num != r.Num || len(c.Members) != len(r.Members) {
		t.Fatal("WithActivation mangled fields")
	}
	c.Members[0] = 99
	if r.Members[0] == 99 {
		t.Fatal("WithActivation aliases the original's members")
	}
}

// FuzzEpochRoundTrip fuzzes the epoch-record wire codec: every decoded
// record must re-encode to the identical bytes (decode∘encode identity
// on the accepted set), truncations and bit flips of sealed records
// must be rejected by Open, and stale records must be rejected by the
// chain (replay protection). Wired into `make fuzz`.
func FuzzEpochRoundTrip(f *testing.F) {
	f.Add(sampleRecord().Encode())
	f.Add(Genesis([]network.NodeID{0, 1, 2}).Encode())
	f.Add([]byte{})
	f.Add([]byte("me1junk"))
	reg := sig.NewRegistry(1, 4)
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeRecord(b)
		if err == nil {
			// Decode∘encode identity: the codec is canonical.
			if !bytes.Equal(r.Encode(), b) {
				t.Fatalf("decode∘encode not identity: %x -> %x", b, r.Encode())
			}
			// Sealing and reopening preserves the record.
			sealed := Seal(reg, r)
			got, err := Open(reg, sealed)
			if err != nil {
				t.Fatalf("sealed valid record rejected: %v", err)
			}
			if got.ID() != r.ID() {
				t.Fatal("seal/open changed the record")
			}
			// Bit-flipped seal is rejected.
			mut := append([]byte(nil), sealed...)
			mut[len(mut)/2] ^= 1
			if _, err := Open(reg, mut); err == nil {
				t.Fatal("bit-flipped sealed record accepted")
			}
			if len(sealed) > 1 {
				if _, err := Open(reg, sealed[:len(sealed)-1]); err == nil {
					t.Fatal("truncated sealed record accepted")
				}
			}
		}
		// Raw fuzz input must never open (it carries no valid operator
		// signature).
		if _, err := Open(reg, b); err == nil {
			t.Fatalf("unsigned input opened: %x", b)
		}
	})
}
