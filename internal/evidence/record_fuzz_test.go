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
//  1. Encode∘Decode is the identity on valid records (a verifier that
//     re-encodes what it decoded signs exactly the producer's bytes), and
//  2. Decode either rejects malformed input or yields a record whose
//     re-encoding round-trips — no input may decode to a record that
//     serializes differently (an equivocation-proof forgery vector).
//
// It also checks that the in-place ParseRecord accepts and rejects
// exactly what DecodeRecord does, with the same fields.
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
		rec, err := DecodeRecord(data)
		parsed, perr := ParseRecord(data)
		if (err == nil) != (perr == nil) {
			t.Fatalf("DecodeRecord error %v, ParseRecord error %v", err, perr)
		}
		if err != nil {
			return // malformed input rejected: fine
		}
		if !sameRecord(parsed, rec) {
			t.Fatalf("ParseRecord %+v, DecodeRecord %+v", parsed, rec)
		}
		enc := rec.Encode()
		if !bytes.Equal(enc, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, enc)
		}
		rec2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of valid encoding failed: %v", err)
		}
		if rec2.Producer != rec.Producer || rec2.Logical != rec.Logical ||
			rec2.Node != rec.Node || rec2.Period != rec.Period ||
			rec2.SendOff != rec.SendOff || !bytes.Equal(rec2.Value, rec.Value) ||
			rec2.InputsDigest != rec.InputsDigest {
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
		got, err := DecodeRecord(rec.Encode())
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
