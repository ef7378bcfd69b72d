package runtime

import (
	"bytes"
	"testing"
	"testing/quick"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/sig"
)

func TestDataPayloadRoundTrip(t *testing.T) {
	reg := sig.NewRegistry(1, 3)
	rec := evidence.Record{Producer: "t#0", Logical: "t", Node: 1, Period: 9, Value: []byte("v")}
	env := reg.Seal(1, rec.Encode())
	att := reg.Seal(0, evidence.Record{Producer: "s#0", Logical: "s", Node: 0, Period: 9, Value: []byte("u")}.Encode())
	p := dataPayload(env, []sig.Envelope{att})
	gotEnv, gotAtts, err := parseDataPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnv.Body, env.Body) || gotEnv.Signer != 1 {
		t.Error("envelope mangled")
	}
	if len(gotAtts) != 1 || !bytes.Equal(gotAtts[0].Body, att.Body) {
		t.Error("attachments mangled")
	}
}

// dataPayloadWith seals a record and k attachments and frames them.
func dataPayloadWith(k int) (sig.Envelope, []sig.Envelope, []byte) {
	reg := sig.NewRegistry(1, 3)
	env := reg.Seal(1, evidence.Record{Producer: "t#0", Logical: "t", Node: 1, Period: 9, Value: []byte("v")}.Encode())
	atts := make([]sig.Envelope, k)
	for i := range atts {
		atts[i] = reg.Seal(0, evidence.Record{Producer: "s#0", Logical: "s", Node: 0, Period: 9, Value: []byte{byte(i)}}.Encode())
	}
	return env, atts, dataPayload(env, atts)
}

// TestDataPayloadParseAllocs pins one owned array per received payload:
// the clone, plus the attachment slice when there is one to hold,
// whatever the number of attachments.
func TestDataPayloadParseAllocs(t *testing.T) {
	for _, k := range []int{0, 1, 4} {
		_, _, p := dataPayloadWith(k)
		if got := testing.AllocsPerRun(100, func() { _, _, _ = parseDataPayload(p) }); got > 2 {
			t.Errorf("parsing a data payload with %d attachments allocates %.0f, want <= 2", k, got)
		}
	}
}

// TestDataPayloadParseOwnsItsOutput: the parsed envelope and attachments
// share one array cloned from the frame, so scribbling on the frame
// changes no field, and appending to the record's Body or Sig cannot
// overwrite the first attachment parsed after it.
func TestDataPayloadParseOwnsItsOutput(t *testing.T) {
	env, atts, p := dataPayloadWith(4)
	gotEnv, gotAtts, err := parseDataPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p {
		p[i] ^= 0xff
	}
	same := func(a, b sig.Envelope) bool {
		return a.Signer == b.Signer && bytes.Equal(a.Body, b.Body) && bytes.Equal(a.Sig, b.Sig)
	}
	if !same(gotEnv, env) {
		t.Error("parsed record envelope changed when the frame was mutated")
	}
	for i := range atts {
		if !same(gotAtts[i], atts[i]) {
			t.Errorf("parsed attachment %d changed when the frame was mutated", i)
		}
	}
	_ = append(gotEnv.Body, 0xee)
	_ = append(gotEnv.Sig, 0xee)
	_ = append(gotAtts[0].Sig, 0xee)
	if !same(gotEnv, env) || !same(gotAtts[0], atts[0]) || !same(gotAtts[1], atts[1]) {
		t.Error("an append to a parsed Body or Sig overwrote the envelope after it")
	}
}

func TestDataPayloadRejectsMalformed(t *testing.T) {
	reg := sig.NewRegistry(1, 2)
	env := reg.Seal(0, []byte("x"))
	good := dataPayload(env, nil)
	cases := [][]byte{
		{},
		{msgData},
		good[:len(good)-1],
		append([]byte{msgEvidence}, good[1:]...), // wrong kind byte
		// Valid envelope, then an attachment count of 65536 with nothing
		// behind it: rejected, and without reserving room for the count.
		append(append([]byte{}, good[:len(good)-4]...), 0x00, 0x00, 0x01, 0x00),
	}
	for i, c := range cases {
		if _, _, err := parseDataPayload(c); err == nil {
			t.Errorf("case %d: malformed payload accepted", i)
		}
	}
}

func TestDataPayloadFuzz(t *testing.T) {
	f := func(b []byte) bool {
		_, _, _ = parseDataPayload(b) // must not panic
		_, _ = parseEvidencePayload(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEvidencePayloadRoundTrip(t *testing.T) {
	reg := sig.NewRegistry(1, 2)
	wrapper := reg.Seal(1, []byte("inner-evidence-bytes"))
	p := evidencePayload(wrapper)
	got, err := parseEvidencePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Signer != 1 || !bytes.Equal(got.Body, wrapper.Body) {
		t.Error("wrapper mangled")
	}
}

func TestMajoritySelection(t *testing.T) {
	mk := func(prod string, val string) *arrival {
		return &arrival{rec: evidence.Record{
			Producer: flow.TaskID("s#" + prod), Logical: "s", Value: []byte(val),
		}}
	}
	// 2-vs-1: majority wins regardless of order.
	win := majority([]*arrival{mk("0", "bad"), mk("1", "good"), mk("2", "good")})
	if string(win.rec.Value) != "good" {
		t.Errorf("majority picked %q", win.rec.Value)
	}
	// Tie: first arrival among the largest classes wins (deterministic).
	win = majority([]*arrival{mk("0", "a"), mk("1", "b")})
	if string(win.rec.Value) != "a" {
		t.Errorf("tie-break picked %q", win.rec.Value)
	}
	if majority(nil) != nil {
		t.Error("majority of nothing should be nil")
	}
}
