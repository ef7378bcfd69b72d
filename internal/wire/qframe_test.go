package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func qreqEqual(a, b QRequest) bool {
	return a.Op == b.Op && a.OpID == b.OpID && a.Epoch == b.Epoch &&
		a.TS == b.TS && a.Writer == b.Writer &&
		bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value)
}

func qrespEqual(a, b QResponse) bool {
	if a.Status != b.Status || a.OpID != b.OpID || a.Epoch != b.Epoch ||
		a.TS != b.TS || a.Writer != b.Writer || !bytes.Equal(a.Value, b.Value) ||
		len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			return false
		}
	}
	return true
}

func TestQRequestRoundTrip(t *testing.T) {
	for name, q := range map[string]QRequest{
		"set": {Op: QOpSet, OpID: 42, Epoch: 3, TS: 17, Writer: 2,
			Key: []byte("sensor/a"), Value: []byte("reading")},
		"get":         {Op: QOpGet, OpID: 7, Epoch: 1, Key: []byte("k")},
		"empty key":   {Op: QOpGet, OpID: 1},
		"empty value": {Op: QOpSet, OpID: 9, TS: 1, Key: []byte("k")},
	} {
		frame, err := AppendQRequest(nil, q)
		if err != nil {
			t.Fatalf("%s: AppendQRequest: %v", name, err)
		}
		typ, body, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil || typ != TypeQRequest {
			t.Fatalf("%s: ReadFrame: typ=%c err=%v", name, typ, err)
		}
		got, err := ParseQRequest(body)
		if err != nil {
			t.Fatalf("%s: ParseQRequest: %v", name, err)
		}
		if !qreqEqual(got, q) {
			t.Fatalf("%s: qreq = %+v, want %+v", name, got, q)
		}
	}
}

func TestQResponseRoundTrip(t *testing.T) {
	for name, q := range map[string]QResponse{
		"ok get": {Status: QStatusOK, OpID: 42, Epoch: 3, TS: 17, Writer: 2,
			Value: []byte("reading")},
		"stale view": {Status: QStatusStaleView, OpID: 7, Epoch: 4,
			Members: []uint32{0, 1, 3, 5}},
		"bare ack": {Status: QStatusOK, OpID: 1, Epoch: 0, TS: 9, Writer: 1},
		"err":      {Status: QStatusErr, OpID: 3},
	} {
		frame, err := AppendQResponse(nil, q)
		if err != nil {
			t.Fatalf("%s: AppendQResponse: %v", name, err)
		}
		typ, body, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil || typ != TypeQResponse {
			t.Fatalf("%s: ReadFrame: typ=%c err=%v", name, typ, err)
		}
		got, err := ParseQResponse(body)
		if err != nil {
			t.Fatalf("%s: ParseQResponse: %v", name, err)
		}
		if !qrespEqual(got, q) {
			t.Fatalf("%s: qresp = %+v, want %+v", name, got, q)
		}
	}
}

// TestQOversizeBoundary pins the encode-side guards exactly at their
// caps: the largest admissible key/value/member list encodes, one more
// byte (or ID) is ErrOversize with dst untouched.
func TestQOversizeBoundary(t *testing.T) {
	atLimit := QRequest{Op: QOpSet, Key: make([]byte, MaxQKey), Value: make([]byte, MaxQValue)}
	frame, err := AppendQRequest(nil, atLimit)
	if err != nil {
		t.Fatalf("AppendQRequest at limit: %v", err)
	}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame))); err != nil {
		t.Fatalf("ReadFrame at limit: %v", err)
	}

	dst := []byte("prefix")
	for name, q := range map[string]QRequest{
		"key":   {Op: QOpSet, Key: make([]byte, MaxQKey+1)},
		"value": {Op: QOpSet, Value: make([]byte, MaxQValue+1)},
	} {
		out, err := AppendQRequest(dst, q)
		if !errors.Is(err, ErrOversize) {
			t.Fatalf("qreq oversize %s: err = %v, want ErrOversize", name, err)
		}
		if !bytes.Equal(out, dst) {
			t.Fatalf("qreq oversize %s: dst mutated", name)
		}
	}

	respAtLimit := QResponse{Value: make([]byte, MaxQValue), Members: make([]uint32, MaxQMembers)}
	frame, err = AppendQResponse(nil, respAtLimit)
	if err != nil {
		t.Fatalf("AppendQResponse at limit: %v", err)
	}
	if _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame))); err != nil {
		t.Fatalf("ReadFrame resp at limit: %v", err)
	}
	for name, q := range map[string]QResponse{
		"value":   {Value: make([]byte, MaxQValue+1)},
		"members": {Members: make([]uint32, MaxQMembers+1)},
	} {
		out, err := AppendQResponse(dst, q)
		if !errors.Is(err, ErrOversize) {
			t.Fatalf("qresp oversize %s: err = %v, want ErrOversize", name, err)
		}
		if !bytes.Equal(out, dst) {
			t.Fatalf("qresp oversize %s: dst mutated", name)
		}
	}
}

// TestParseQRequestRejectsMalformed drives the decode-side guards: every
// wire-supplied length is checked against its cap and the remaining body
// before any allocation, and trailing bytes are an error.
func TestParseQRequestRejectsMalformed(t *testing.T) {
	valid, err := AppendQRequest(nil, QRequest{Op: QOpSet, OpID: 5, Epoch: 1, TS: 2, Writer: 3,
		Key: []byte("key"), Value: []byte("value")})
	if err != nil {
		t.Fatalf("AppendQRequest: %v", err)
	}
	body := valid[5:] // strip length prefix + type byte

	cases := map[string][]byte{
		"empty body":     {},
		"short header":   make([]byte, qreqHeaderSize-1),
		"trailing bytes": append(append([]byte(nil), body...), 0xff),
		"truncated key":  body[:qreqHeaderSize-4+1], // klen says 3, one byte present
	}
	// klen pointing past the body.
	badK := append([]byte(nil), body...)
	binary.LittleEndian.PutUint16(badK[29:], uint16(MaxQKey))
	cases["key length overflow"] = badK
	// vlen pointing past the body (and past the cap).
	badV := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(badV[31+3:], uint32(MaxQValue+1))
	cases["value length overflow"] = badV

	for name, b := range cases {
		if _, err := ParseQRequest(b); err == nil {
			t.Errorf("ParseQRequest(%s) accepted malformed body", name)
		}
	}
	if q, err := ParseQRequest(body); err != nil || string(q.Key) != "key" || string(q.Value) != "value" {
		t.Fatalf("control: valid body failed to parse: %+v %v", q, err)
	}
}

func TestParseQResponseRejectsMalformed(t *testing.T) {
	valid, err := AppendQResponse(nil, QResponse{Status: QStatusStaleView, OpID: 5, Epoch: 2,
		TS: 1, Writer: 0, Value: []byte("v"), Members: []uint32{0, 2}})
	if err != nil {
		t.Fatalf("AppendQResponse: %v", err)
	}
	body := valid[5:] // strip length prefix + type byte

	cases := map[string][]byte{
		"empty body":        {},
		"short header":      make([]byte, qrespHeaderSize-1),
		"trailing bytes":    append(append([]byte(nil), body...), 0xff),
		"truncated members": body[:len(body)-1],
	}
	badV := append([]byte(nil), body...)
	binary.LittleEndian.PutUint32(badV[29:], uint32(MaxQValue+1))
	cases["value length overflow"] = badV
	badM := append([]byte(nil), body...)
	binary.LittleEndian.PutUint16(badM[33+1:], uint16(MaxQMembers))
	cases["member count overflow"] = badM

	for name, b := range cases {
		if _, err := ParseQResponse(b); err == nil {
			t.Errorf("ParseQResponse(%s) accepted malformed body", name)
		}
	}
	if q, err := ParseQResponse(body); err != nil || len(q.Members) != 2 {
		t.Fatalf("control: valid body failed to parse: %+v %v", q, err)
	}
}

// FuzzQFrameRoundTrip feeds arbitrary bytes through the frame reader
// and, when a Q frame parses, re-encodes it checking for a fixed point —
// the client-facing twin of FuzzFrameRoundTrip, wired into `make fuzz`.
func FuzzQFrameRoundTrip(f *testing.F) {
	reqSeed, _ := AppendQRequest(nil, QRequest{Op: QOpSet, OpID: 1, Epoch: 2, TS: 3, Writer: 4,
		Key: []byte("k"), Value: []byte("v")})
	f.Add(reqSeed)
	respSeed, _ := AppendQResponse(nil, QResponse{Status: QStatusStaleView, OpID: 1, Epoch: 3,
		Members: []uint32{0, 1, 2}})
	f.Add(respSeed)
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
		checkReadFrameInto(t, data, typ, body, err)
		if err != nil {
			return
		}
		switch typ {
		case TypeQRequest:
			q, err := ParseQRequest(body)
			if err != nil {
				return
			}
			re, err := AppendQRequest(nil, q)
			if err != nil {
				t.Fatalf("re-encode of parsed qreq failed: %v", err)
			}
			typ2, body2, err := ReadFrame(bufio.NewReader(bytes.NewReader(re)))
			if err != nil || typ2 != TypeQRequest {
				t.Fatalf("qreq re-decode: typ=%c err=%v", typ2, err)
			}
			q2, err := ParseQRequest(body2)
			if err != nil || !qreqEqual(q, q2) {
				t.Fatalf("qreq round trip mismatch: %+v vs %+v (%v)", q, q2, err)
			}
		case TypeQResponse:
			q, err := ParseQResponse(body)
			if err != nil {
				return
			}
			re, err := AppendQResponse(nil, q)
			if err != nil {
				t.Fatalf("re-encode of parsed qresp failed: %v", err)
			}
			typ2, body2, err := ReadFrame(bufio.NewReader(bytes.NewReader(re)))
			if err != nil || typ2 != TypeQResponse {
				t.Fatalf("qresp re-decode: typ=%c err=%v", typ2, err)
			}
			q2, err := ParseQResponse(body2)
			if err != nil || !qrespEqual(q, q2) {
				t.Fatalf("qresp round trip mismatch: %+v vs %+v (%v)", q, q2, err)
			}
		}
	})
}

// TestParseQInPlace pins the in-place parsers: no allocation for a
// request or for an OK response without members, Key and Value aliasing
// the body, and each capped so that an append to one cannot overwrite
// the next.
func TestParseQInPlace(t *testing.T) {
	reqFrame, err := AppendQRequest(nil, QRequest{Op: QOpSet, OpID: 1, Epoch: 2, TS: 3, Writer: 4,
		Key: []byte("key"), Value: []byte("value")})
	if err != nil {
		t.Fatalf("AppendQRequest: %v", err)
	}
	respFrame, err := AppendQResponse(nil, QResponse{Status: QStatusOK, OpID: 1, Epoch: 2, TS: 3, Writer: 4,
		Value: []byte("value")})
	if err != nil {
		t.Fatalf("AppendQResponse: %v", err)
	}
	reqBody, respBody := reqFrame[5:], respFrame[5:]
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseQRequest(reqBody); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseQResponse(respBody); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("parsing a qreq and a member-less qresp allocates %.1f objects, want 0", n)
	}

	q, err := ParseQRequest(reqBody)
	if err != nil {
		t.Fatalf("ParseQRequest: %v", err)
	}
	keyOff := qreqHeaderSize - 4
	valOff := keyOff + len("key") + 4
	if &q.Key[0] != &reqBody[keyOff] || &q.Value[0] != &reqBody[valOff] {
		t.Fatal("qreq Key or Value does not alias the body")
	}
	if cap(q.Key) != len(q.Key) || cap(q.Value) != len(q.Value) {
		t.Fatalf("qreq fields not capacity-capped: key cap %d, value cap %d", cap(q.Key), cap(q.Value))
	}
	pristine := bytes.Clone(reqFrame)
	if grown := append(q.Key, "XXXXXXXX"...); string(grown) != "keyXXXXXXXX" {
		t.Fatalf("append to Key = %q", grown)
	}
	if !bytes.Equal(reqFrame, pristine) {
		t.Fatalf("appending to Key overwrote the frame: value %q", q.Value)
	}

	r, err := ParseQResponse(respBody)
	if err != nil {
		t.Fatalf("ParseQResponse: %v", err)
	}
	if &r.Value[0] != &respBody[qrespHeaderSize-2] || cap(r.Value) != len(r.Value) {
		t.Fatal("qresp Value does not alias the body, capacity-capped")
	}
	if r.Members != nil {
		t.Fatalf("member-less qresp decoded Members %v", r.Members)
	}
}
