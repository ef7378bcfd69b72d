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
