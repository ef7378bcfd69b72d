package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Cluster: 0xdeadbeefcafe, Node: 7}
	frame := AppendHello(nil, h)
	typ, body, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != TypeHello {
		t.Fatalf("type = %c, want %c", typ, TypeHello)
	}
	got, err := ParseHello(body)
	if err != nil {
		t.Fatalf("ParseHello: %v", err)
	}
	if got != h {
		t.Fatalf("hello = %+v, want %+v", got, h)
	}
}

func TestHelloRejectsBadMagicAndVersion(t *testing.T) {
	frame := AppendHello(nil, Hello{Cluster: 1, Node: 2})
	body := frame[5:] // skip len+type

	bad := append([]byte(nil), body...)
	bad[0] = 'X'
	if _, err := ParseHello(bad); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), body...)
	bad[len(Magic)] = Version + 1
	if _, err := ParseHello(bad); err == nil {
		t.Fatal("bad version accepted")
	}

	if _, err := ParseHello(body[:len(body)-1]); err == nil {
		t.Fatal("short hello accepted")
	}
}

func TestMsgRoundTrip(t *testing.T) {
	m := Msg{Class: 1, Src: 2, Dst: 3, From: 4, To: 5, Hops: 6, Payload: []byte("payload")}
	frame, err := AppendMsg(nil, m)
	if err != nil {
		t.Fatalf("AppendMsg: %v", err)
	}
	typ, body, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if typ != TypeMsg {
		t.Fatalf("type = %c, want %c", typ, TypeMsg)
	}
	got, err := ParseMsg(body)
	if err != nil {
		t.Fatalf("ParseMsg: %v", err)
	}
	if got.Class != m.Class || got.Src != m.Src || got.Dst != m.Dst ||
		got.From != m.From || got.To != m.To || got.Hops != m.Hops ||
		!bytes.Equal(got.Payload, m.Payload) {
		t.Fatalf("msg = %+v, want %+v", got, m)
	}
}

func TestMsgEmptyPayload(t *testing.T) {
	frame, err := AppendMsg(nil, Msg{Class: 2})
	if err != nil {
		t.Fatalf("AppendMsg: %v", err)
	}
	_, body, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := ParseMsg(body)
	if err != nil {
		t.Fatalf("ParseMsg: %v", err)
	}
	if len(got.Payload) != 0 {
		t.Fatalf("payload = %q, want empty", got.Payload)
	}
}

// TestMsgOversizeBoundary pins the encode-side guard exactly at the
// boundary: the largest admissible payload encodes, one more byte is
// ErrOversize with dst untouched.
func TestMsgOversizeBoundary(t *testing.T) {
	atLimit := Msg{Payload: make([]byte, MaxMsgPayload)}
	frame, err := AppendMsg(nil, atLimit)
	if err != nil {
		t.Fatalf("AppendMsg at limit: %v", err)
	}
	if got := binary.LittleEndian.Uint32(frame); got != MaxFrame {
		t.Fatalf("frame length = %d, want %d", got, MaxFrame)
	}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame))); err != nil {
		t.Fatalf("ReadFrame at limit: %v", err)
	}

	over := Msg{Payload: make([]byte, MaxMsgPayload+1)}
	dst := []byte("prefix")
	out, err := AppendMsg(dst, over)
	if !errors.Is(err, ErrOversize) {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
	if !bytes.Equal(out, dst) {
		t.Fatal("dst mutated on oversize error")
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	zero := binary.LittleEndian.AppendUint32(nil, 0)
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(zero))); err == nil {
		t.Fatal("zero-length frame accepted")
	}
	huge := binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Fatal("oversized frame length accepted")
	}
}

func TestReadFrameShortBody(t *testing.T) {
	frame := binary.LittleEndian.AppendUint32(nil, 10)
	frame = append(frame, TypeMsg, 1, 2) // 7 bytes missing
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatal("short frame accepted")
	}
}

// checkReadFrameInto reads data's first frame through one dirty buffer
// three times: too small for most inputs, then grown with garbage past
// any frame in data, then holding the previous read. Each read must
// return what ReadFrame returned: type, body and error.
func checkReadFrameInto(t *testing.T, data []byte, typ byte, body []byte, err error) {
	t.Helper()
	buf := bytes.Repeat([]byte{0xa5}, len(data)/2)
	for round := 0; round < 3; round++ {
		if round == 1 {
			buf = append(buf[:cap(buf)], bytes.Repeat([]byte{0x5a}, len(data)+16)...)
		}
		typ2, body2, err2 := ReadFrameInto(bufio.NewReader(bytes.NewReader(data)), &buf)
		if typ2 != typ || !bytes.Equal(body2, body) || fmt.Sprint(err2) != fmt.Sprint(err) {
			t.Fatalf("round %d: ReadFrameInto = (%c, %x, %v), ReadFrame = (%c, %x, %v)",
				round, typ2, body2, err2, typ, body, err)
		}
	}
}

// TestReadFrameIntoReuses pins the buffered reader: no allocation once
// the buffer holds the largest frame, a short frame read after a long
// one into the same array, and ReadFrame's errors on every bad input.
func TestReadFrameIntoReuses(t *testing.T) {
	long, err := AppendMsg(nil, Msg{Class: 1, Payload: bytes.Repeat([]byte("L"), 300)})
	if err != nil {
		t.Fatalf("AppendMsg: %v", err)
	}
	short, err := AppendMsg(nil, Msg{Class: 2, Payload: []byte("s")})
	if err != nil {
		t.Fatalf("AppendMsg: %v", err)
	}
	stream := append(append([]byte(nil), long...), short...)
	var rd bytes.Reader
	br := bufio.NewReader(&rd)
	var buf []byte
	read := func() (byte, []byte) {
		typ, body, err := ReadFrameInto(br, &buf)
		if err != nil {
			t.Fatalf("ReadFrameInto: %v", err)
		}
		return typ, body
	}

	rd.Reset(stream)
	br.Reset(&rd)
	if _, body := read(); !bytes.Equal(body, long[5:]) {
		t.Fatal("long frame body mismatch")
	}
	grown := &buf[0]
	if _, body := read(); !bytes.Equal(body, short[5:]) || &buf[0] != grown {
		t.Fatal("short frame after a long one: wrong body or a new buffer")
	}
	if _, _, err := ReadFrameInto(br, &buf); err != io.EOF {
		t.Fatalf("end of stream at a frame boundary: %v, want io.EOF", err)
	}
	if n := testing.AllocsPerRun(100, func() {
		rd.Reset(stream)
		br.Reset(&rd)
		read()
		read()
	}); n != 0 {
		t.Fatalf("reading into a large enough buffer allocates %.1f objects, want 0", n)
	}

	bad := map[string][]byte{
		"empty stream":     nil,
		"zero length":      binary.LittleEndian.AppendUint32(nil, 0),
		"oversize length":  binary.LittleEndian.AppendUint32(nil, MaxFrame+1),
		"truncated prefix": {7, 0},
		"truncated body":   long[:len(long)-1],
	}
	for name, data := range bad {
		_, _, want := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		if want == nil {
			t.Fatalf("%s: ReadFrame accepted it", name)
		}
		rd.Reset(data)
		br.Reset(&rd)
		_, _, got := ReadFrameInto(br, &buf)
		if got == nil || got.Error() != want.Error() ||
			errors.Is(got, io.EOF) != errors.Is(want, io.EOF) ||
			errors.Is(got, io.ErrUnexpectedEOF) != errors.Is(want, io.ErrUnexpectedEOF) {
			t.Errorf("%s: ReadFrameInto error %v, ReadFrame %v", name, got, want)
		}
	}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(long[:len(long)-1]))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: %v, want a wrapped io.ErrUnexpectedEOF", err)
	}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader([]byte{7, 0}))); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated prefix: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestParseMsgTruncated(t *testing.T) {
	if _, err := ParseMsg(make([]byte, msgHeaderSize-1)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

// TestStreamOfFrames decodes several back-to-back frames from one
// reader, the shape the connection read loop sees.
func TestStreamOfFrames(t *testing.T) {
	var stream []byte
	stream = AppendHello(stream, Hello{Cluster: 9, Node: 1})
	var err error
	stream, err = AppendMsg(stream, Msg{Class: 1, Payload: []byte("a")})
	if err != nil {
		t.Fatalf("AppendMsg: %v", err)
	}
	stream = AppendHeartbeat(stream)
	stream, err = AppendMsg(stream, Msg{Class: 0, Payload: []byte("bb")})
	if err != nil {
		t.Fatalf("AppendMsg: %v", err)
	}

	r := bufio.NewReader(bytes.NewReader(stream))
	wantTypes := []byte{TypeHello, TypeMsg, TypeHeartbeat, TypeMsg}
	for i, want := range wantTypes {
		typ, _, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != want {
			t.Fatalf("frame %d type = %c, want %c", i, typ, want)
		}
	}
	if _, _, err := ReadFrame(r); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}

func batchEqual(a, b []Msg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Src != b[i].Src || a[i].Dst != b[i].Dst ||
			a[i].From != b[i].From || a[i].To != b[i].To || a[i].Hops != b[i].Hops ||
			!bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

func TestBatchRoundTrip(t *testing.T) {
	ms := []Msg{
		{Class: 1, Src: 1, Dst: 2, From: 1, To: 2, Hops: 0, Payload: []byte("evidence blob")},
		{Class: 0, Src: 3, Dst: 4, From: 3, To: 4, Hops: 7, Payload: nil},
		{Class: 1, Src: 5, Dst: 6, From: 5, To: 6, Hops: 2, Payload: bytes.Repeat([]byte("x"), 4096)},
	}
	frame, n, err := AppendBatch(nil, ms)
	if err != nil || n != len(ms) {
		t.Fatalf("AppendBatch = (n=%d, %v), want all %d", n, err, len(ms))
	}
	typ, body, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil || typ != TypeBatch {
		t.Fatalf("ReadFrame: typ=%c err=%v", typ, err)
	}
	got, err := ParseBatch(body)
	if err != nil {
		t.Fatalf("ParseBatch: %v", err)
	}
	if !batchEqual(ms, got) {
		t.Fatalf("batch round trip mismatch")
	}
}

func TestAppendBatchEmpty(t *testing.T) {
	frame, n, err := AppendBatch(nil, nil)
	if err != nil || n != 0 || len(frame) != 0 {
		t.Fatalf("AppendBatch(nil) = (%d bytes, n=%d, %v), want nothing", len(frame), n, err)
	}
}

func TestAppendBatchChunksAtMaxFrame(t *testing.T) {
	// Four messages of ~a third of MaxFrame each cannot share one frame;
	// AppendBatch must close the frame before overflowing and report how
	// far it got, so a draining loop emits several valid frames.
	big := bytes.Repeat([]byte("p"), MaxFrame/3)
	ms := make([]Msg, 4)
	for i := range ms {
		ms[i] = Msg{Class: 1, Src: uint32(i), Payload: big}
	}
	var stream []byte
	total := 0
	for total < len(ms) {
		var n int
		var err error
		stream, n, err = AppendBatch(stream, ms[total:])
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		if n == 0 {
			t.Fatalf("AppendBatch consumed nothing at offset %d", total)
		}
		total += n
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	var got []Msg
	for {
		typ, body, err := ReadFrame(r)
		if err != nil {
			break
		}
		if typ != TypeBatch {
			t.Fatalf("unexpected frame type %c", typ)
		}
		part, err := ParseBatch(body)
		if err != nil {
			t.Fatalf("ParseBatch: %v", err)
		}
		if len(body)+4 > MaxFrame+4 {
			t.Fatalf("emitted frame exceeds MaxFrame")
		}
		got = append(got, part...)
	}
	if !batchEqual(ms, got) {
		t.Fatalf("chunked batch stream did not reassemble: got %d msgs", len(got))
	}
}

func TestAppendBatchOversizePayload(t *testing.T) {
	over := Msg{Class: 1, Payload: make([]byte, MaxFrame)}
	if _, n, err := AppendBatch(nil, []Msg{over}); err == nil || n != 0 {
		t.Fatalf("AppendBatch(oversize first) = (n=%d, %v), want ErrOversize", n, err)
	}
	// An oversize message mid-queue: the valid prefix is emitted, the
	// error surfaces on the next call.
	ms := []Msg{{Class: 1, Payload: []byte("ok")}, over}
	frame, n, err := AppendBatch(nil, ms)
	if err != nil || n != 1 {
		t.Fatalf("AppendBatch(ok, oversize) = (n=%d, %v), want (1, nil)", n, err)
	}
	if _, _, err := AppendBatch(frame, ms[1:]); err == nil {
		t.Fatalf("AppendBatch(oversize tail) did not error")
	}
}

func TestParseBatchRejectsMalformed(t *testing.T) {
	valid, _, err := AppendBatch(nil, []Msg{{Class: 1, Payload: []byte("abc")}})
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	body := valid[5:] // strip length prefix + type byte
	cases := map[string][]byte{
		"empty body":      {},
		"one byte":        {1},
		"zero count":      {0, 0},
		"truncated entry": append([]byte{2, 0}, body[2:]...),
		"trailing bytes":  append(append([]byte(nil), body...), 0xff),
	}
	// Corrupt the payload length field of the single entry upward.
	badLen := append([]byte(nil), body...)
	badLen[2+19] = 0xff
	badLen[2+19+3] = 0xff
	cases["payload length overflow"] = badLen
	for name, b := range cases {
		if _, err := ParseBatch(b); err == nil {
			t.Errorf("ParseBatch(%s) accepted malformed body", name)
		}
	}
	if ms, err := ParseBatch(body); err != nil || len(ms) != 1 || !bytes.Equal(ms[0].Payload, []byte("abc")) {
		t.Fatalf("control: valid body failed to parse: %v", err)
	}
}

// FuzzFrameRoundTrip feeds arbitrary bytes through the frame reader and,
// when a msg parses, re-encodes it checking for a fixed point.
func FuzzFrameRoundTrip(f *testing.F) {
	seed, _ := AppendMsg(nil, Msg{Class: 1, Src: 2, Dst: 3, From: 4, To: 5, Hops: 6, Payload: []byte("x")})
	f.Add(seed)
	f.Add(AppendHello(nil, Hello{Cluster: 1, Node: 2}))
	batchSeed, _, _ := AppendBatch(nil, []Msg{{Class: 1, Payload: []byte("a")}, {Class: 0, Src: 7, Payload: []byte("bb")}})
	f.Add(batchSeed)
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		checkReadFrameInto(t, data, typ, body, err)
		if err != nil {
			return
		}
		switch typ {
		case TypeMsg:
			m, err := ParseMsg(body)
			if err != nil {
				return
			}
			re, err := AppendMsg(nil, m)
			if err != nil {
				t.Fatalf("re-encode of parsed msg failed: %v", err)
			}
			typ2, body2, err := ReadFrame(bufio.NewReader(bytes.NewReader(re)))
			if err != nil || typ2 != TypeMsg {
				t.Fatalf("re-decode: typ=%c err=%v", typ2, err)
			}
			m2, err := ParseMsg(body2)
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			if m2.Class != m.Class || m2.Src != m.Src || m2.Dst != m.Dst ||
				m2.From != m.From || m2.To != m.To || m2.Hops != m.Hops ||
				!bytes.Equal(m2.Payload, m.Payload) {
				t.Fatalf("round trip mismatch: %+v vs %+v", m, m2)
			}
		case TypeBatch:
			ms, err := ParseBatch(body)
			if err != nil {
				return
			}
			re, n, err := AppendBatch(nil, ms)
			if err != nil || n != len(ms) {
				t.Fatalf("re-encode of parsed batch failed: n=%d err=%v", n, err)
			}
			typ2, body2, err := ReadFrame(bufio.NewReader(bytes.NewReader(re)))
			if err != nil || typ2 != TypeBatch {
				t.Fatalf("batch re-decode: typ=%c err=%v", typ2, err)
			}
			ms2, err := ParseBatch(body2)
			if err != nil || !batchEqual(ms, ms2) {
				t.Fatalf("batch round trip mismatch (%v)", err)
			}
		case TypeHello:
			if h, err := ParseHello(body); err == nil {
				re := AppendHello(nil, h)
				_, body2, err := ReadFrame(bufio.NewReader(bytes.NewReader(re)))
				if err != nil {
					t.Fatalf("hello re-decode: %v", err)
				}
				h2, err := ParseHello(body2)
				if err != nil || h2 != h {
					t.Fatalf("hello round trip: %+v vs %+v (%v)", h, h2, err)
				}
			}
		}
	})
}

// The coalescing benchmarks quantify what batching buys at the codec
// layer: one batch frame for n messages vs n msg frames.
func benchMsgs(n int) []Msg {
	ms := make([]Msg, n)
	for i := range ms {
		ms[i] = Msg{Class: 1, Src: uint32(i), Dst: 1, From: uint32(i), To: 1, Hops: 1, Payload: bytes.Repeat([]byte{byte(i)}, 256)}
	}
	return ms
}

func BenchmarkAppendMsg64(b *testing.B) {
	ms := benchMsgs(64)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for j := range ms {
			var err error
			buf, err = AppendMsg(buf, ms[j])
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAppendBatch64(b *testing.B) {
	ms := benchMsgs(64)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		rest := ms
		for len(rest) > 0 {
			var n int
			var err error
			buf, n, err = AppendBatch(buf, rest)
			if err != nil || n == 0 {
				b.Fatal(err)
			}
			rest = rest[n:]
		}
	}
}

func BenchmarkParseBatch64(b *testing.B) {
	frame, n, err := AppendBatch(nil, benchMsgs(64))
	if err != nil || n != 64 {
		b.Fatalf("AppendBatch: n=%d err=%v", n, err)
	}
	body := frame[5:] // strip len prefix + type byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseBatch(body); err != nil {
			b.Fatal(err)
		}
	}
}
