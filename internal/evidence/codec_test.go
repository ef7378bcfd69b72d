package evidence

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"btr/internal/sig"
	"btr/internal/sim"
)

func codecRecord() Record {
	r := Record{
		Producer: "fc.law#1", Logical: "fc.law", Node: 3, Period: 17,
		SendOff: 250 * sim.Microsecond, Value: []byte("value-bytes"),
	}
	copy(r.InputsDigest[:], bytes.Repeat([]byte{0xab}, 32))
	return r
}

func codecEnvelopes(n int) []sig.Envelope {
	reg := sig.NewRegistry(41, 4)
	envs := make([]sig.Envelope, n)
	for i := range envs {
		envs[i] = reg.Seal(0, bytes.Repeat([]byte{byte(i + 1)}, 10+i))
	}
	return envs
}

// TestCodecAllocPins pins "copy each field once, size each buffer once":
// the data-plane codec's allocation counts are part of its contract (the
// campaign's mallocs per trial are dominated by them).
func TestCodecAllocPins(t *testing.T) {
	rec := codecRecord()
	enc := rec.Encode()
	if got := testing.AllocsPerRun(100, func() { _ = rec.Encode() }); got != 1 {
		t.Errorf("Record.Encode allocates %.0f, want 1 (one exact-size buffer)", got)
	}
	if cap(enc) != len(enc) {
		t.Errorf("Record.Encode buffer cap %d != len %d", cap(enc), len(enc))
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = DecodeRecord(enc) }); got > 3 {
		t.Errorf("DecodeRecord allocates %.0f, want <= 3 (two strings and the value)", got)
	}
	const n = 5
	list := EncodeEnvelopes(codecEnvelopes(n))
	if got := testing.AllocsPerRun(100, func() { _, _ = DecodeEnvelopes(list) }); got > 1+n {
		t.Errorf("DecodeEnvelopes of %d allocates %.0f, want <= %d (the slice and one per envelope)", n, got, 1+n)
	}
}

// TestDecodeOwnsItsOutput: decoded values must not alias the input frame
// (transports reuse and adversaries mutate it).
func TestDecodeOwnsItsOutput(t *testing.T) {
	scribble := func(b []byte) {
		for i := range b {
			b[i] ^= 0xff
		}
	}

	rec := codecRecord()
	enc := rec.Encode()
	got, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	scribble(enc)
	if got.Producer != rec.Producer || got.Logical != rec.Logical ||
		!bytes.Equal(got.Value, rec.Value) || got.InputsDigest != rec.InputsDigest {
		t.Errorf("DecodeRecord output changed when the input was mutated: %+v", got)
	}

	envs := codecEnvelopes(3)
	list := EncodeEnvelopes(envs)
	back, err := DecodeEnvelopes(list)
	if err != nil {
		t.Fatal(err)
	}
	scribble(list)
	for i := range envs {
		if back[i].Signer != envs[i].Signer || !bytes.Equal(back[i].Body, envs[i].Body) ||
			!bytes.Equal(back[i].Sig, envs[i].Sig) {
			t.Errorf("DecodeEnvelopes output %d changed when the input was mutated", i)
		}
	}
}

// TestDecodeStillRejectsMalformed lists every class of malformed input
// the codec rejected before it stopped pre-copying fields; each must
// still be an error.
func TestDecodeStillRejectsMalformed(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	enc := codecRecord().Encode()
	records := map[string][]byte{
		"empty":                  {},
		"short length prefix":    enc[:3],
		"string past the end":    cat(u32(1000), []byte("p")),
		"truncated in digest":    enc[:len(enc)-1],
		"trailing byte":          cat(enc, []byte{9}),
		"huge first length":      {0xff, 0xff, 0xff, 0xff},
		"value length past end":  cat(u32(0), u32(0), u32(1), make([]byte, 16), u32(99), make([]byte, 32)),
		"missing digest":         cat(u32(0), u32(0), u32(1), make([]byte, 16), u32(0)),
		"digest one byte short":  cat(u32(0), u32(0), u32(1), make([]byte, 16), u32(0), make([]byte, 31)),
		"digest one byte beyond": cat(u32(0), u32(0), u32(1), make([]byte, 16), u32(0), make([]byte, 33)),
	}
	for name, b := range records {
		if _, err := DecodeRecord(b); err == nil {
			t.Errorf("DecodeRecord accepted %s", name)
		}
	}

	envs := codecEnvelopes(2)
	list := EncodeEnvelopes(envs)
	one := envs[0].Encode()
	oversize := append([]byte(nil), one...)
	binary.LittleEndian.PutUint32(oversize[4:], sig.MaxBody+1)
	lists := map[string][]byte{
		"empty":                     {},
		"short count":               list[:3],
		"count beyond the cap":      u32(1<<16 + 1),
		"count without payload":     u32(1 << 16),
		"count one too many":        cat(u32(3), list[4:]),
		"count one too few":         cat(u32(1), list[4:]),
		"truncated last envelope":   list[:len(list)-1],
		"trailing byte":             cat(list, []byte{0}),
		"entry length past the end": cat(u32(1), u32(uint32(len(one)+1)), one),
		"entry shorter than header": cat(u32(1), u32(4), one[:4]),
		"entry body length lies":    cat(u32(1), u32(uint32(len(one)-1)), one[:len(one)-1]),
		"oversize body":             cat(u32(1), u32(uint32(len(oversize))), oversize),
	}
	for name, b := range lists {
		if _, err := DecodeEnvelopes(b); err == nil {
			t.Errorf("DecodeEnvelopes accepted %s", name)
		}
	}
	// The same list is the tail of an evidence blob.
	ev := Evidence{Kind: KindWrongOutput, Accused: 1, Reporter: 2, Primary: envs[0], Attachments: envs}
	blob := ev.Encode()
	for name, b := range map[string][]byte{
		"truncated":     blob[:len(blob)-1],
		"trailing byte": cat(blob, []byte{0}),
	} {
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode accepted %s blob", name)
		}
	}
}

// TestDecodeEnvelopesCountIsNotAnAllocationRequest: the envelope count is
// read before any signature is checked, so it must not size an
// allocation beyond what the frame's remaining bytes could hold. A
// count of 65536 with no payload used to reserve 65536 envelope headers
// (about 3.6 MB) per ~100-byte frame.
func TestDecodeEnvelopesCountIsNotAnAllocationRequest(t *testing.T) {
	frame := binary.LittleEndian.AppendUint32(nil, 1<<16)
	decode := func() {
		if _, err := DecodeEnvelopes(frame); err == nil {
			t.Fatal("count without payload accepted")
		}
	}
	decode()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, decode)
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls decode runs+1 times (one warm-up).
	if perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perRun >= 1024 {
		t.Errorf("rejecting a count-only frame allocated %d bytes (%.0f objects), want < 1 KiB", perRun, allocs)
	}
}
