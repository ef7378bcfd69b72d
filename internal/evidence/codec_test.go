package evidence

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"btr/internal/flow"
	"btr/internal/network"
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
	dst := make([]byte, 0, rec.EncodedSize())
	if got := testing.AllocsPerRun(100, func() { _ = rec.AppendTo(dst) }); got != 0 {
		t.Errorf("Record.AppendTo allocates %.0f into a sized dst, want 0", got)
	}
	// AllocsPerRun's warm-up run interns the two task IDs.
	if got := testing.AllocsPerRun(100, func() { _, _ = ParseRecord(enc) }); got != 0 {
		t.Errorf("ParseRecord allocates %.0f, want 0 (the value aliases the input; the IDs are interned)", got)
	}
	acc := Accusation{Reporter: 2, Path: []network.NodeID{0, 1, 2}, Producer: "fc.law#1", Consumer: "fc.out#0", Period: 17}
	if got := testing.AllocsPerRun(100, func() { _ = acc.Encode() }); got != 1 {
		t.Errorf("Accusation.Encode allocates %.0f, want 1 (one exact-size buffer)", got)
	}
	if b := acc.Encode(); cap(b) != len(b) {
		t.Errorf("Accusation.Encode buffer cap %d != len %d", cap(b), len(b))
	}
	for _, n := range []int{0, 1, 5, 32} {
		list := EncodeEnvelopes(codecEnvelopes(n))
		if got := testing.AllocsPerRun(100, func() { _, _ = ParseEnvelopes(list) }); got > 1 {
			t.Errorf("ParseEnvelopes of %d allocates %.0f, want <= 1 (the slice)", n, got)
		}
		envs := codecEnvelopes(n + 1)
		blob := Evidence{Kind: KindWrongOutput, Accused: 1, Reporter: 2, Primary: envs[0], Attachments: envs[1:]}.Encode()
		want := 1.0 // the attachment slice
		if n == 0 {
			want = 0
		}
		if got := testing.AllocsPerRun(100, func() { _, _ = Parse(blob) }); got != want {
			t.Errorf("Parse of evidence with %d attachments allocates %.0f, want %.0f", n, got, want)
		}
	}
}

// TestInternTableStaysBounded: IDs are chosen by signers, so more than
// internCap distinct hostile IDs must leave the table at or below its
// cap, and every decoded ID must still equal its input — including IDs
// too long to intern.
func TestInternTableStaysBounded(t *testing.T) {
	rec := codecRecord()
	for i := 0; i < internCap+internCap/2; i++ {
		rec.Producer = flow.TaskID(fmt.Sprintf("hostile-%d#%d", i, i%3))
		rec.Logical = flow.TaskID(strings.Repeat("L", i%(internMaxLen+8)))
		got, err := ParseRecord(rec.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.Producer != rec.Producer || got.Logical != rec.Logical {
			t.Fatalf("decoded IDs %q/%q, want %q/%q", got.Producer, got.Logical, rec.Producer, rec.Logical)
		}
		interned.RLock()
		size := len(interned.m)
		interned.RUnlock()
		if size > internCap {
			t.Fatalf("intern table holds %d IDs after %d records, cap %d", size, i+1, internCap)
		}
	}
	interned.RLock()
	defer interned.RUnlock()
	for k, v := range interned.m {
		if len(k) > internMaxLen || k != string(v) {
			t.Fatalf("intern table entry %q -> %q", k, v)
		}
	}
}

// TestDecodeConcurrently: campaign workers decode in parallel through the
// one intern table; run under -race.
func TestDecodeConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := codecRecord()
				rec.Producer = flow.TaskID(fmt.Sprintf("t%d#%d", i%16, g))
				got, err := ParseRecord(rec.Encode())
				if err != nil || got.Producer != rec.Producer || got.Logical != rec.Logical {
					t.Errorf("goroutine %d: decoded %+v, %v", g, got, err)
					return
				}
				a := Accusation{Reporter: 1, Path: []network.NodeID{1, 2}, Producer: rec.Producer, Consumer: "c#0", Period: 3}
				ga, err := DecodeAccusation(a.Encode(), nil)
				if err != nil || ga.Producer != a.Producer || ga.Consumer != a.Consumer {
					t.Errorf("goroutine %d: decoded accusation %+v, %v", g, ga, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestParseEnvelopesInPlace: the in-place list parser aliases its input
// (which is why its callers must own it), and every Body and Sig is
// capacity-capped, so an append to one cannot overwrite the envelope
// parsed after it.
func TestParseEnvelopesInPlace(t *testing.T) {
	envs := codecEnvelopes(3)
	list := EncodeEnvelopes(envs)
	got, err := ParseEnvelopes(list)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0].Body[0] != &list[4+4+8] {
		t.Error("ParseEnvelopes copied instead of parsing in place")
	}
	_ = append(got[0].Body, 0xee)
	_ = append(got[0].Sig, 0xee)
	_ = append(got[1].Body, 0xee)
	for i := range envs {
		if !bytes.Equal(got[i].Body, envs[i].Body) || !bytes.Equal(got[i].Sig, envs[i].Sig) {
			t.Errorf("envelope %d overwritten by an append to its neighbour", i)
		}
	}
}

// TestParseRecordInPlace: ParseRecord's Value aliases its input (which
// is why the input must stay unmodified) and is capacity-capped, so an
// append to it cannot overwrite the digest behind it.
func TestParseRecordInPlace(t *testing.T) {
	rec := codecRecord()
	enc := rec.Encode()
	got, err := ParseRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	valueAt := 4 + len(rec.Producer) + 4 + len(rec.Logical) + 4 + 8 + 8 + 4
	if &got.Value[0] != &enc[valueAt] {
		t.Error("ParseRecord copied the value instead of parsing in place")
	}
	_ = append(got.Value, bytes.Repeat([]byte{0xee}, 8)...)
	if !bytes.Equal(enc, rec.Encode()) {
		t.Error("an append to the parsed value overwrote the input's digest")
	}
	if !sameRecord(got, rec) {
		t.Errorf("ParseRecord %+v, want %+v", got, rec)
	}

	// Every malformed record TestDecodeStillRejectsMalformed lists.
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, b := range map[string][]byte{
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
	} {
		if _, err := ParseRecord(b); err == nil {
			t.Errorf("ParseRecord accepted %s", name)
		}
	}
}

// sameRecord reports whether two records agree field for field.
func sameRecord(a, b Record) bool {
	return a.Producer == b.Producer && a.Logical == b.Logical && a.Node == b.Node &&
		a.Period == b.Period && a.SendOff == b.SendOff && bytes.Equal(a.Value, b.Value) &&
		a.InputsDigest == b.InputsDigest
}

// TestDecodeOwnsItsOutput: Decode's evidence must not alias its input
// (its callers need not keep the blob), while Parse's retained wire and
// envelopes are views into the blob, capacity-capped.
func TestDecodeOwnsItsOutput(t *testing.T) {
	envs := codecEnvelopes(4)
	orig := Evidence{Kind: KindEquivocation, Accused: 0, Reporter: 2, DetectedAt: 9,
		Primary: envs[0], Secondary: envs[1], Attachments: envs[2:]}
	blob := orig.AppendTo(make([]byte, 0, orig.EncodedSize()+8)) // spare capacity
	want := bytes.Clone(blob)
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(blob)
	if err != nil {
		t.Fatal(err)
	}
	if &parsed.Encode()[0] != &blob[0] || &parsed.Primary.Body[0] == &got.Primary.Body[0] {
		t.Error("Parse copied its input, or Decode did not")
	}
	if w := parsed.Encode(); cap(w) != len(w) {
		t.Errorf("Parse retained a wire of cap %d > len %d", cap(w), len(w))
	}
	for i := range blob {
		blob[i] ^= 0xff
	}
	if !bytes.Equal(got.Encode(), want) || got.ID() != orig.ID() ||
		!bytes.Equal(got.Primary.Sig, envs[0].Sig) || !bytes.Equal(got.Secondary.Body, envs[1].Body) ||
		len(got.Attachments) != 2 || !bytes.Equal(got.Attachments[1].Sig, envs[3].Sig) {
		t.Error("Decode output changed when the input was mutated")
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
		if _, err := ParseRecord(b); err == nil {
			t.Errorf("ParseRecord accepted %s", name)
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
		if _, err := ParseEnvelopes(b); err == nil {
			t.Errorf("ParseEnvelopes accepted %s", name)
		}
	}
	// The same list is the tail of an evidence blob.
	ev := Evidence{Kind: KindWrongOutput, Accused: 1, Reporter: 2, Primary: envs[0], Attachments: envs}
	blob := ev.Encode()
	for name, b := range map[string][]byte{
		"truncated":     blob[:len(blob)-1],
		"trailing byte": cat(blob, []byte{0}),
	} {
		if _, err := Parse(b); err == nil {
			t.Errorf("Parse accepted %s blob", name)
		}
		if _, err := Decode(b); err == nil {
			t.Errorf("Decode accepted %s blob", name)
		}
	}
}

// TestDecodeEnvelopesCountIsNotAnAllocationRequest: the envelope count
// (read by ParseEnvelopes, on its own or under Parse and Decode) comes
// before any signature is checked, so it must not size an
// allocation beyond what the frame's remaining bytes could hold. A
// count of 65536 with no payload used to reserve 65536 envelope headers
// (about 3.6 MB) per ~100-byte frame.
func TestDecodeEnvelopesCountIsNotAnAllocationRequest(t *testing.T) {
	frame := binary.LittleEndian.AppendUint32(nil, 1<<16)
	decode := func() {
		if _, err := ParseEnvelopes(frame); err == nil {
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
