package evidence

import (
	"bytes"
	"testing"

	"btr/internal/network"
	"btr/internal/sim"
)

// FuzzRecordRoundTrip checks the two invariants of the Record codec that
// the evidence layer's security rests on:
//
//  1. Encode∘ParseRecord is the identity on valid records (a verifier
//     that re-encodes what it parsed signs exactly the producer's bytes),
//     and
//  2. ParseRecord either rejects malformed input or yields a record whose
//     re-encoding round-trips — no input may parse to a record that
//     serializes differently (an equivocation-proof forgery vector).
//
// It also checks that AppendTo after a prefix is the prefix followed by
// Encode, and that EncodedSize is Encode's length: the data frame is
// sealed around a record appended in place.
func FuzzRecordRoundTrip(f *testing.F) {
	seed := Record{
		Producer: "fc.law#1",
		Logical:  "fc.law",
		Node:     3,
		Period:   17,
		SendOff:  250 * sim.Microsecond,
		Value:    []byte("v"),
	}
	copy(seed.InputsDigest[:], bytes.Repeat([]byte{0xab}, 32))
	f.Add(seed.Encode())
	f.Add(Record{}.Encode())
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	long := Record{Producer: "p", Logical: "l", Value: bytes.Repeat([]byte{7}, 300)}
	f.Add(long.Encode())
	// An attachment list claiming 65536 envelopes with no payload — the
	// frame that used to cost its receiver 3.6 MB (codec_test.go).
	f.Add([]byte{0x00, 0x00, 0x01, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ParseRecord(data)
		if err != nil {
			return // malformed input rejected: fine
		}
		enc := rec.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("parse/encode not canonical:\n in: %x\nout: %x", data, enc)
		}
		if rec.EncodedSize() != len(enc) {
			t.Fatalf("EncodedSize %d, encoding %d bytes", rec.EncodedSize(), len(enc))
		}
		prefix := []byte("prefix")
		if got := rec.AppendTo(bytes.Clone(prefix)); !bytes.Equal(got, append(prefix, enc...)) {
			t.Fatalf("AppendTo(prefix) = %x, want prefix then %x", got, enc)
		}
		rec2, err := ParseRecord(enc)
		if err != nil {
			t.Fatalf("re-parse of valid encoding failed: %v", err)
		}
		if !sameRecord(rec2, rec) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", rec, rec2)
		}
	})
}

// TestRecordRoundTripStructured complements the fuzz target with a
// structured sweep over field shapes (empty strings, empty and large
// values, extreme numeric fields).
func TestRecordRoundTripStructured(t *testing.T) {
	cases := []Record{
		{},
		{Producer: "a#0", Logical: "a", Node: 0, Period: 0, Value: nil},
		{Producer: "x", Logical: "y", Node: network.NodeID(1<<31 - 1), Period: 1<<64 - 1,
			SendOff: -5 * sim.Millisecond, Value: []byte{}},
		{Producer: "sink#2", Logical: "sink", Node: 9, Period: 1,
			SendOff: sim.Never, Value: bytes.Repeat([]byte{0x55}, 1024)},
	}
	for i, rec := range cases {
		got, err := ParseRecord(rec.Encode())
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Producer != rec.Producer || got.Logical != rec.Logical ||
			got.Node != rec.Node || got.Period != rec.Period ||
			got.SendOff != rec.SendOff || !bytes.Equal(got.Value, rec.Value) ||
			got.InputsDigest != rec.InputsDigest {
			t.Fatalf("case %d round-trip mismatch:\n%+v\n%+v", i, rec, got)
		}
	}
}
