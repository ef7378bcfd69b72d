package evidence

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sig"
	"btr/internal/sim"
)

func testValidator(reg *sig.Registry) *Validator {
	return &Validator{
		Reg: reg,
		Recompute: func(task flow.TaskID, period uint64, inputs []Record) ([]byte, bool) {
			if task == "sensor" { // sources are not re-executable
				return nil, false
			}
			return HashCompute(task, period, inputs), true
		},
		Window: func(producer flow.TaskID, period uint64) (sim.Time, sim.Time, bool) {
			return 0, 5 * sim.Millisecond, true
		},
	}
}

// mkRecord builds a signed record envelope for node with the given inputs.
func mkRecord(reg *sig.Registry, node network.NodeID, producer, logical flow.TaskID,
	period uint64, sendOff sim.Time, value []byte, inputs []sig.Envelope) sig.Envelope {
	r := Record{
		Producer: producer, Logical: logical, Node: node,
		Period: period, SendOff: sendOff, Value: value,
		InputsDigest: DigestEnvelopes(inputs),
	}
	return reg.Seal(node, r.Encode())
}

func TestRecordRoundTrip(t *testing.T) {
	r := Record{
		Producer: "t#1", Logical: "t", Node: 3, Period: 42,
		SendOff: 1500 * sim.Microsecond, Value: []byte{1, 2, 3},
	}
	r.InputsDigest[0] = 0xaa
	d, err := ParseRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d.Producer != r.Producer || d.Logical != r.Logical || d.Node != r.Node ||
		d.Period != r.Period || d.SendOff != r.SendOff ||
		!bytes.Equal(d.Value, r.Value) || d.InputsDigest != r.InputsDigest {
		t.Errorf("round trip mismatch: %+v vs %+v", d, r)
	}
}

func TestRecordDecodeMalformed(t *testing.T) {
	r := Record{Producer: "p", Logical: "l", Node: 1, Period: 1, Value: []byte("v")}
	enc := r.Encode()
	for _, b := range [][]byte{{}, enc[:3], enc[:len(enc)-1], append(append([]byte{}, enc...), 9)} {
		if _, err := ParseRecord(b); err == nil {
			t.Errorf("decode accepted malformed input of len %d", len(b))
		}
	}
}

func TestRecordDecodeFuzz(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = ParseRecord(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEvidenceRoundTrip(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	in := mkRecord(reg, 0, "s#0", "s", 7, 10, []byte("iv"), nil)
	env := mkRecord(reg, 1, "t#0", "t", 7, 20, []byte("ov"), []sig.Envelope{in})
	e := Evidence{
		Kind: KindWrongOutput, Accused: 1, Reporter: 2, DetectedAt: 99,
		Primary: env, Attachments: []sig.Envelope{in},
	}
	d, err := Decode(e.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != e.Kind || d.Accused != 1 || d.Reporter != 2 || d.DetectedAt != 99 {
		t.Errorf("metadata mismatch: %+v", d)
	}
	if len(d.Attachments) != 1 || !bytes.Equal(d.Attachments[0].Body, in.Body) {
		t.Error("attachments lost")
	}
	if d.ID() != e.ID() {
		t.Error("ID not stable across round trip")
	}
}

func TestEvidenceDecodeFuzz(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Decode(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEquivocationValid(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	e1 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v1"), nil)
	e2 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v2"), nil)
	ev := Evidence{Kind: KindEquivocation, Accused: 2, Reporter: 0, Primary: e1, Secondary: e2}
	if err := v.Validate(ev); err != nil {
		t.Fatalf("valid equivocation rejected: %v", err)
	}
}

func TestEquivocationRejectsConsistentRecords(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	e1 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("same"), nil)
	ev := Evidence{Kind: KindEquivocation, Accused: 2, Reporter: 0, Primary: e1, Secondary: e1}
	if err := v.Validate(ev); !errors.Is(err, ErrNotAFault) {
		t.Fatalf("consistent records accepted as equivocation: %v", err)
	}
}

func TestEquivocationRejectsDifferentSlots(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	e1 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v1"), nil)
	e2 := mkRecord(reg, 2, "t#1", "t", 6, 100, []byte("v2"), nil) // different period
	ev := Evidence{Kind: KindEquivocation, Accused: 2, Reporter: 0, Primary: e1, Secondary: e2}
	if err := v.Validate(ev); err == nil {
		t.Fatal("different-slot records accepted as equivocation")
	}
}

func TestEquivocationCannotFrame(t *testing.T) {
	// A reporter cannot frame node 3 with records signed by node 2.
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	e1 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v1"), nil)
	e2 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v2"), nil)
	ev := Evidence{Kind: KindEquivocation, Accused: 3, Reporter: 0, Primary: e1, Secondary: e2}
	if err := v.Validate(ev); err == nil {
		t.Fatal("framing accepted")
	}
}

func TestWrongOutputValid(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	in := mkRecord(reg, 0, "s#0", "s", 7, 10, []byte("sensor-7"), nil)
	atts := []sig.Envelope{in}
	// Node 1 signs an output that does NOT match re-execution.
	bad := mkRecord(reg, 1, "t#0", "t", 7, 20, []byte("lie"), atts)
	ev := Evidence{Kind: KindWrongOutput, Accused: 1, Reporter: 2, Primary: bad, Attachments: atts}
	if err := v.Validate(ev); err != nil {
		t.Fatalf("valid wrong-output proof rejected: %v", err)
	}
}

func TestWrongOutputRejectsCorrectOutput(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	in := mkRecord(reg, 0, "s#0", "s", 7, 10, []byte("sensor-7"), nil)
	atts := []sig.Envelope{in}
	inRec, _ := ParseRecord(in.Body)
	good := HashCompute("t", 7, []Record{inRec})
	env := mkRecord(reg, 1, "t#0", "t", 7, 20, good, atts)
	ev := Evidence{Kind: KindWrongOutput, Accused: 1, Reporter: 2, Primary: env, Attachments: atts}
	if err := v.Validate(ev); !errors.Is(err, ErrNotAFault) {
		t.Fatalf("correct output accepted as wrong-output proof: %v", err)
	}
}

func TestWrongOutputRejectsSwappedAttachments(t *testing.T) {
	// A malicious reporter cannot substitute different inputs to make a
	// correct node look wrong: the digest check fails.
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	realIn := mkRecord(reg, 0, "s#0", "s", 7, 10, []byte("real"), nil)
	fakeIn := mkRecord(reg, 0, "s#0", "s", 7, 10, []byte("fake"), nil)
	realAtts := []sig.Envelope{realIn}
	realRec, _ := ParseRecord(realIn.Body)
	good := HashCompute("t", 7, []Record{realRec})
	env := mkRecord(reg, 1, "t#0", "t", 7, 20, good, realAtts)
	ev := Evidence{Kind: KindWrongOutput, Accused: 1, Reporter: 2,
		Primary: env, Attachments: []sig.Envelope{fakeIn}}
	if err := v.Validate(ev); err == nil {
		t.Fatal("swapped attachments accepted")
	}
}

func TestWrongOutputSourceNotReexecutable(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	env := mkRecord(reg, 1, "sensor#0", "sensor", 7, 20, []byte("x"), nil)
	ev := Evidence{Kind: KindWrongOutput, Accused: 1, Reporter: 2, Primary: env}
	if err := v.Validate(ev); err == nil {
		t.Fatal("source wrong-output proof accepted despite no re-execution")
	}
}

func TestBadInputValid(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	// Node 1 commits to an attachment whose signature is garbage.
	garbage := sig.Envelope{Signer: 0, Body: []byte("whatever"), Sig: make([]byte, sig.SignatureSize)}
	atts := []sig.Envelope{garbage}
	env := mkRecord(reg, 1, "t#0", "t", 7, 20, []byte("v"), atts)
	ev := Evidence{Kind: KindBadInput, Accused: 1, Reporter: 2, Primary: env, Attachments: atts}
	if err := v.Validate(ev); err != nil {
		t.Fatalf("valid bad-input proof rejected: %v", err)
	}
}

func TestBadInputRejectsAllValidAttachments(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	in := mkRecord(reg, 0, "s#0", "s", 7, 10, []byte("ok"), nil)
	atts := []sig.Envelope{in}
	env := mkRecord(reg, 1, "t#0", "t", 7, 20, []byte("v"), atts)
	ev := Evidence{Kind: KindBadInput, Accused: 1, Reporter: 2, Primary: env, Attachments: atts}
	if err := v.Validate(ev); !errors.Is(err, ErrNotAFault) {
		t.Fatalf("bad-input proof with valid attachments: %v", err)
	}
}

func TestTimingValid(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg) // window is [0, 5ms]
	late := mkRecord(reg, 1, "t#0", "t", 7, 9*sim.Millisecond, []byte("v"), nil)
	ev := Evidence{Kind: KindTiming, Accused: 1, Reporter: 2, Primary: late}
	if err := v.Validate(ev); err != nil {
		t.Fatalf("valid timing proof rejected: %v", err)
	}
}

func TestTimingRejectsInWindow(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	onTime := mkRecord(reg, 1, "t#0", "t", 7, 2*sim.Millisecond, []byte("v"), nil)
	ev := Evidence{Kind: KindTiming, Accused: 1, Reporter: 2, Primary: onTime}
	if err := v.Validate(ev); !errors.Is(err, ErrNotAFault) {
		t.Fatalf("in-window record accepted as timing fault: %v", err)
	}
}

func TestPathAccusationValid(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	a := Accusation{Reporter: 2, Path: []network.NodeID{1, 3}, Producer: "t#0", Consumer: "u#0", Period: 7}
	env := reg.Seal(2, a.Encode())
	ev := Evidence{Kind: KindPathAccusation, Accused: -1, Reporter: 2, Primary: env}
	if err := v.Validate(ev); err != nil {
		t.Fatalf("valid accusation rejected: %v", err)
	}
}

// TestSealedOneAllocation pins a sealed statement's evidence at one
// allocation, its wire, and checks it is born canonical and valid:
// Canon allocates nothing and keeps that wire.
func TestSealedOneAllocation(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	a := Accusation{Reporter: 2, Path: []network.NodeID{1, 3}, Producer: "t#0", Consumer: "u#0", Period: 7}
	b := BudgetVerdict{Reporter: 2, Active: 2, Capacity: 1}
	for _, tc := range []struct {
		name string
		seal func() Evidence
	}{
		{"accusation", func() Evidence { return Sealed(reg, KindPathAccusation, 2, 3, a) }},
		{"verdict", func() Evidence { return Sealed(reg, KindOverBudget, 2, 3, b) }},
	} {
		if got := testing.AllocsPerRun(100, func() { _ = tc.seal() }); got != 1 {
			t.Errorf("sealing a %s allocates %.0f, want 1", tc.name, got)
		}
		ev := tc.seal()
		if got := testing.AllocsPerRun(100, func() { _ = ev.Canon() }); got != 0 || &ev.Canon().Encode()[0] != &ev.Encode()[0] {
			t.Errorf("a sealed %s is not canonical: Canon allocates %.0f", tc.name, got)
		}
		if err := v.Validate(ev); err != nil {
			t.Errorf("sealed %s rejected: %v", tc.name, err)
		}
	}
}

func TestPathAccusationRejectsForgedReporter(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	a := Accusation{Reporter: 3, Path: []network.NodeID{1}, Producer: "t#0", Consumer: "u#0", Period: 7}
	env := reg.Seal(2, a.Encode()) // signed by 2, claims reporter 3
	ev := Evidence{Kind: KindPathAccusation, Accused: -1, Reporter: 3, Primary: env}
	if err := v.Validate(ev); err == nil {
		t.Fatal("forged-reporter accusation accepted")
	}
}

func TestAccusationRoundTrip(t *testing.T) {
	a := Accusation{Reporter: 2, Path: []network.NodeID{4, 1, 9}, Producer: "p", Consumer: "c", Period: 3}
	d, err := DecodeAccusation(a.Encode(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Reporter != a.Reporter || len(d.Path) != 3 || d.Path[2] != 9 ||
		d.Producer != "p" || d.Consumer != "c" || d.Period != 3 {
		t.Errorf("round trip mismatch: %+v", d)
	}
}

func TestBogusEvidenceValid(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	// Node 3 endorses evidence that fails validation (an "equivocation"
	// with consistent records).
	e1 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("same"), nil)
	inner := Evidence{Kind: KindEquivocation, Accused: 2, Reporter: 3, Primary: e1, Secondary: e1}
	wrapper := reg.Seal(3, inner.Encode())
	ev := Evidence{Kind: KindBogus, Accused: 3, Reporter: 0, Primary: wrapper}
	if err := v.Validate(ev); err != nil {
		t.Fatalf("valid bogus-endorsement proof rejected: %v", err)
	}
}

func TestBogusEvidenceRejectsValidInner(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	e1 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v1"), nil)
	e2 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v2"), nil)
	inner := Evidence{Kind: KindEquivocation, Accused: 2, Reporter: 3, Primary: e1, Secondary: e2}
	wrapper := reg.Seal(3, inner.Encode())
	ev := Evidence{Kind: KindBogus, Accused: 3, Reporter: 0, Primary: wrapper}
	if err := v.Validate(ev); !errors.Is(err, ErrNotAFault) {
		t.Fatalf("valid inner evidence flagged bogus: %v", err)
	}
}

func TestBogusEvidenceUndecodableInner(t *testing.T) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	wrapper := reg.Seal(3, []byte("complete garbage"))
	ev := Evidence{Kind: KindBogus, Accused: 3, Reporter: 0, Primary: wrapper}
	if err := v.Validate(ev); err != nil {
		t.Fatalf("garbage endorsement not accepted as proof: %v", err)
	}
}

func TestAttributorThreshold(t *testing.T) {
	a := NewAttributor(2)
	// Node 5 accused by two distinct reporters.
	if c := a.Add([]network.NodeID{5, 1}, 1); len(c) != 0 {
		t.Fatalf("convicted too early: %v", c)
	}
	c := a.Add([]network.NodeID{5, 2}, 2)
	if len(c) != 1 || c[0] != 5 {
		t.Fatalf("node 5 not convicted: %v", c)
	}
	if !a.Convicted(5) || a.Convicted(1) {
		t.Error("conviction state wrong")
	}
	if a.Suspicion(5) != 2 {
		t.Errorf("suspicion count wrong: %d", a.Suspicion(5))
	}
}

func TestAttributorDedupsPathReporterPairs(t *testing.T) {
	a := NewAttributor(2)
	a.Add([]network.NodeID{5, 1}, 1)
	a.Add([]network.NodeID{1, 5}, 1) // same set, same reporter
	if a.Suspicion(5) != 1 {
		t.Errorf("duplicate accusation counted: suspicion = %d", a.Suspicion(5))
	}
}

// TestAttributorDuplicateAllocatesNothing: a repeated accusation, the
// common case (a reporter accuses the same path every period), is looked
// up in a stack buffer and allocates nothing; the key is the reporter,
// then the sorted path, each a little-endian u32.
func TestAttributorDuplicateAllocatesNothing(t *testing.T) {
	a := NewAttributor(2)
	path := []network.NodeID{5, 1, 3}
	a.Add(path, 1)
	if got := testing.AllocsPerRun(100, func() { a.Add(path, 1) }); got != 0 {
		t.Errorf("a duplicate accusation allocates %.0f per call", got)
	}
	want := []byte{1, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0}
	if k := pathKey(nil, path, 1); !bytes.Equal(k, want) {
		t.Errorf("pathKey = %v, want %v", k, want)
	}
	if len(a.seen) != 1 || !a.seen[string(want)] {
		t.Errorf("dedup set %v, want the one key %v", a.seen, want)
	}
}

func TestAttributorSingleReporterCannotConvict(t *testing.T) {
	// One reporter spamming different paths against node 5 never convicts
	// at threshold 2: it could be fabricating.
	a := NewAttributor(2)
	a.Add([]network.NodeID{5, 1}, 1)
	c := a.Add([]network.NodeID{5, 3, 1}, 1)
	if len(c) != 0 {
		t.Fatalf("convicted on a single reporter: %v", c)
	}
}

func TestAttributorReporterNotSelfAccused(t *testing.T) {
	// A reporter's own presence on its accusation paths must not accrue
	// suspicion against it, or honest reporting would be punished.
	a := NewAttributor(2)
	a.Add([]network.NodeID{5, 1}, 1)
	a.Add([]network.NodeID{6, 1}, 1)
	if a.Suspicion(1) != 0 {
		t.Errorf("reporter accrued self-suspicion: %d", a.Suspicion(1))
	}
	if a.Convicted(1) {
		t.Error("honest reporter convicted")
	}
}

func TestAttributorFramingResistance(t *testing.T) {
	// f=2 colluding reporters at threshold f+1=3 cannot convict node 9.
	a := NewAttributor(3)
	a.Add([]network.NodeID{9, 1}, 1)
	a.Add([]network.NodeID{9, 2}, 2)
	if a.Convicted(9) {
		t.Fatal("two reporters convicted at threshold 3")
	}
	// A third (correct) reporter only exists if the fault is real.
	c := a.Add([]network.NodeID{9, 3}, 3)
	if len(c) != 1 || c[0] != 9 {
		t.Fatalf("real fault not convicted: %v", c)
	}
}

func TestKindStringsAndProof(t *testing.T) {
	for _, k := range []Kind{KindEquivocation, KindWrongOutput, KindBadInput, KindTiming, KindPathAccusation, KindBogus} {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	if KindPathAccusation.Proof() {
		t.Error("path accusation must not be a proof")
	}
	if !KindEquivocation.Proof() {
		t.Error("equivocation must be a proof")
	}
}

func TestHashComputeDeterministicAndOrderInsensitive(t *testing.T) {
	in1 := Record{Producer: "a#0", Logical: "a", Value: []byte("x")}
	in2 := Record{Producer: "b#0", Logical: "b", Value: []byte("y")}
	v1 := HashCompute("t", 3, []Record{in1, in2})
	v2 := HashCompute("t", 3, []Record{in2, in1})
	if !bytes.Equal(v1, v2) {
		t.Error("input order changed output")
	}
	v3 := HashCompute("t", 4, []Record{in1, in2})
	if bytes.Equal(v1, v3) {
		t.Error("period did not change output")
	}
}

func TestHashComputeDedupsReplicaInputs(t *testing.T) {
	// Two replicas of the same logical input with the same value must
	// yield the same output as one.
	in1 := Record{Producer: "a#0", Logical: "a", Value: []byte("x")}
	in1b := Record{Producer: "a#1", Logical: "a", Value: []byte("x")}
	one := HashCompute("t", 3, []Record{in1})
	two := HashCompute("t", 3, []Record{in1, in1b})
	if !bytes.Equal(one, two) {
		t.Error("replica duplication changed output")
	}
}

func TestSourceValueDeterministic(t *testing.T) {
	if !bytes.Equal(SourceValue("s", 1), SourceValue("s", 1)) {
		t.Error("source value not deterministic")
	}
	if bytes.Equal(SourceValue("s", 1), SourceValue("s", 2)) {
		t.Error("source value ignores period")
	}
}

func BenchmarkValidateEquivocation(b *testing.B) {
	reg := sig.NewRegistry(1, 4)
	v := testValidator(reg)
	e1 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v1"), nil)
	e2 := mkRecord(reg, 2, "t#1", "t", 5, 100, []byte("v2"), nil)
	ev := Evidence{Kind: KindEquivocation, Accused: 2, Reporter: 0, Primary: e1, Secondary: e2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := v.Validate(ev); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecodeRetainsWire(t *testing.T) {
	reg := sig.NewRegistry(31, 4)
	ev := floodEvidence(t, reg) // decoded: wire + ID memoized
	wire := ev.Encode()
	// Re-encoding a decoded blob is a slice reuse, not a re-serialization.
	if &wire[0] != &ev.Encode()[0] {
		t.Error("Encode of decoded evidence re-serialized instead of reusing the wire")
	}
	// The retained wire and ID agree with a from-scratch re-encode.
	fresh := Evidence{
		Kind: ev.Kind, Accused: ev.Accused, Reporter: ev.Reporter,
		DetectedAt: ev.DetectedAt, Primary: ev.Primary,
		Secondary: ev.Secondary, Attachments: ev.Attachments,
	}
	if !bytes.Equal(fresh.Encode(), wire) {
		t.Error("retained wire differs from field-wise encoding")
	}
	if fresh.ID() != ev.ID() {
		t.Error("memoized ID differs from recomputed ID")
	}
	// Canon on fresh evidence memoizes without changing anything.
	canon := fresh.Canon()
	if !bytes.Equal(canon.Encode(), wire) || canon.ID() != ev.ID() {
		t.Error("Canon changed the encoding or ID")
	}
	if &canon.Encode()[0] != &canon.Encode()[0] {
		t.Error("Canon did not retain a stable wire")
	}
}

func TestAppendEnvelopesMatchesEncode(t *testing.T) {
	reg := sig.NewRegistry(32, 3)
	envs := []sig.Envelope{
		reg.Seal(0, []byte("a")),
		reg.Seal(1, []byte("bb")),
		reg.Seal(2, []byte("ccc")),
	}
	enc := EncodeEnvelopes(envs)
	if len(enc) != EnvelopesSize(envs) {
		t.Errorf("EnvelopesSize = %d, encoded = %d", EnvelopesSize(envs), len(enc))
	}
	app := AppendEnvelopes([]byte{0xAA}, envs)
	if app[0] != 0xAA || !bytes.Equal(app[1:], enc) {
		t.Error("AppendEnvelopes diverges from EncodeEnvelopes")
	}
	back, err := ParseEnvelopes(enc)
	if err != nil || len(back) != 3 {
		t.Fatalf("round trip failed: %v", err)
	}
	for i := range back {
		if !bytes.Equal(back[i].Body, envs[i].Body) || !bytes.Equal(back[i].Sig, envs[i].Sig) {
			t.Errorf("envelope %d mangled", i)
		}
	}
}
