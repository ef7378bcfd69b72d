package runtime

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"

	"btr/internal/evidence"
	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/plan"
	"btr/internal/sig"
	"btr/internal/sim"
)

func TestDataPayloadRoundTrip(t *testing.T) {
	reg := sig.NewRegistry(1, 3)
	rec := evidence.Record{Producer: "t#0", Logical: "t", Node: 1, Period: 9, Value: []byte("v")}
	att := reg.Seal(0, evidence.Record{Producer: "s#0", Logical: "s", Node: 0, Period: 9, Value: []byte("u")}.Encode())
	p := sealFrame(reg, 1, rec, []sig.Envelope{att})
	// The frame is the kind byte, the length-prefixed envelope Seal would
	// give, and the attachment list, in one exact-size array.
	want := reg.Seal(1, rec.Encode())
	ref := binary.LittleEndian.AppendUint32([]byte{msgData}, uint32(want.EncodedSize()))
	ref = evidence.AppendEnvelopes(want.AppendTo(ref), []sig.Envelope{att})
	if !bytes.Equal(p, ref) || cap(p) != len(p) {
		t.Fatalf("frame %x (cap %d), want %x", p, cap(p), ref)
	}
	gotEnv, gotAtts, err := parseDataPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if !sameEnvelope(gotEnv, want) || !reg.Check(gotEnv) {
		t.Error("envelope mangled")
	}
	if got := gotAtts.Envelopes(); len(got) != 1 || !sameEnvelope(got[0], att) {
		t.Error("attachments mangled")
	}
	if gotAtts.Digest() != evidence.DigestEnvelopes([]sig.Envelope{att}) {
		t.Error("the attachment list's digest differs from DigestEnvelopes")
	}
}

func sameEnvelope(a, b sig.Envelope) bool {
	return a.Signer == b.Signer && bytes.Equal(a.Body, b.Body) && bytes.Equal(a.Sig, b.Sig)
}

// dataPayloadWith seals a record with k attachments into its frame.
func dataPayloadWith(k int) (*sig.Registry, evidence.Record, []sig.Envelope) {
	reg := sig.NewRegistry(1, 3)
	rec := evidence.Record{Producer: "t#0", Logical: "t", Node: 1, Period: 9, Value: []byte("v")}
	atts := make([]sig.Envelope, k)
	for i := range atts {
		atts[i] = reg.Seal(0, evidence.Record{Producer: "s#0", Logical: "s", Node: 0, Period: 9, Value: []byte{byte(i)}}.Encode())
	}
	return reg, rec, atts
}

// TestSealFrameOneAllocation pins the send side at one allocation per
// record, the frame, whatever the number of attachments: the record is
// encoded in place and the signature, kept on the stack, is copied in.
func TestSealFrameOneAllocation(t *testing.T) {
	for _, k := range []int{0, 1, 4} {
		reg, rec, atts := dataPayloadWith(k)
		if got := testing.AllocsPerRun(100, func() { _ = sealFrame(reg, 1, rec, atts) }); got != 1 {
			t.Errorf("sealing a record with %d attachments allocates %.0f, want 1", k, got)
		}
	}
}

// TestDataPayloadParseAllocs pins the receive side at no allocation: a
// data frame is parsed in place, and its attachments stay in the frame
// behind a list view, which is walked and digested where it lies.
func TestDataPayloadParseAllocs(t *testing.T) {
	for _, k := range []int{0, 1, 4} {
		reg, rec, atts := dataPayloadWith(k)
		p := sealFrame(reg, 1, rec, atts)
		read := func() {
			_, l, _ := parseDataPayload(p)
			l.All(func(sig.Envelope) bool { return true })
			_ = l.Digest()
		}
		if got := testing.AllocsPerRun(100, read); got != 0 {
			t.Errorf("parsing a data payload with %d attachments allocates %.0f, want 0", k, got)
		}
	}
}

// TestDataPayloadParsesInPlace: the parsed envelope and attachments
// alias the frame, and every Body and Sig is capacity-capped, so
// appending to the record's Body or Sig cannot overwrite the first
// attachment parsed after it.
func TestDataPayloadParsesInPlace(t *testing.T) {
	reg, rec, atts := dataPayloadWith(4)
	p, env := sealFrame(reg, 1, rec, atts), reg.Seal(1, rec.Encode())
	gotEnv, list, err := parseDataPayload(p)
	if err != nil {
		t.Fatal(err)
	}
	gotAtts := list.Envelopes()
	const bodyAt = 1 + 4 + 8
	if &gotEnv.Body[0] != &p[bodyAt] || &gotEnv.Sig[0] != &p[bodyAt+len(env.Body)] ||
		&gotAtts[0].Body[0] != &p[len(p)-evidence.EnvelopesSize(atts)+4+4+8] {
		t.Error("parseDataPayload copied instead of parsing in place")
	}
	_ = append(gotEnv.Body, 0xee)
	_ = append(gotEnv.Sig, 0xee)
	_ = append(gotAtts[0].Sig, 0xee)
	if !sameEnvelope(gotEnv, env) || !sameEnvelope(gotAtts[0], atts[0]) || !sameEnvelope(gotAtts[1], atts[1]) {
		t.Error("an append to a parsed Body or Sig overwrote the envelope after it")
	}
	if !reg.Check(gotEnv) {
		t.Error("parsed envelope does not verify")
	}
}

func TestDataPayloadRejectsMalformed(t *testing.T) {
	reg := sig.NewRegistry(1, 2)
	good := sealFrame(reg, 0, evidence.Record{Producer: "x#0", Logical: "x"}, nil)
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

// TestEvidencePayloadRoundTrip: a bogus-flood frame is drawn and sealed
// in one exact-size allocation and parses in place into an envelope that
// verifies.
func TestEvidencePayloadRoundTrip(t *testing.T) {
	reg := sig.NewRegistry(1, 2)
	rng := sim.NewRNG(3)
	p := bogusFrame(reg, 1, rng)
	if cap(p) != len(p) || testing.AllocsPerRun(100, func() { _ = bogusFrame(reg, 1, rng) }) != 1 {
		t.Errorf("evidence frame not built in one exact-size allocation (len %d, cap %d)", len(p), cap(p))
	}
	got, err := parseEvidencePayload(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Signer != 1 || len(got.Body) != bogusJunk || !reg.Check(got) || &got.Body[0] != &p[1+8] {
		t.Error("wrapper mangled or copied")
	}
}

// legacyFrame is the seal route every frame took before the in-place
// primitive: seal the encoded body, then copy the envelope behind the
// kind byte (and, for a data frame, its length).
func legacyFrame(reg *sig.Registry, kind byte, signer network.NodeID, body []byte) []byte {
	env := reg.Seal(signer, body)
	p := []byte{kind}
	if kind == msgData {
		p = binary.LittleEndian.AppendUint32(p, uint32(env.EncodedSize()))
	}
	return env.AppendTo(p)
}

// TestSealPathMatchesLegacyRoutes pins the one seal path to the bytes of
// the routes it replaced: for every signed frame and statement the
// runtime builds, the wire (and an evidence's ID) equals the old route's,
// rebuilt here from Registry.Seal, Envelope.AppendTo and Evidence.Canon.
func TestSealPathMatchesLegacyRoutes(t *testing.T) {
	reg := sig.NewRegistry(1, 3)
	acc := evidence.Accusation{Reporter: 2, Path: []network.NodeID{0, 1, 2}, Producer: "c1#0", Consumer: "c2#1", Period: 7}
	over := evidence.BudgetVerdict{Reporter: 2, Active: 2, Capacity: 1}
	back := evidence.BudgetVerdict{Reporter: 2, Active: 1, Capacity: 1}
	at := 5 * sim.Millisecond
	statements := []struct {
		name string
		kind evidence.Kind
		got  evidence.Evidence
		body []byte
	}{
		{"path accusation", evidence.KindPathAccusation, evidence.Sealed(reg, evidence.KindPathAccusation, 2, at, acc), acc.Encode()},
		{"over-budget verdict", evidence.KindOverBudget, evidence.Sealed(reg, evidence.KindOverBudget, 2, at, over), over.Encode()},
		{"reconciled verdict", evidence.KindReconciled, evidence.Sealed(reg, evidence.KindReconciled, 2, at, back), back.Encode()},
	}
	for _, st := range statements {
		want := evidence.Evidence{
			Kind: st.kind, Accused: -1, Reporter: 2, DetectedAt: at, Primary: reg.Seal(2, st.body),
		}.Canon()
		if !bytes.Equal(st.got.Encode(), want.Encode()) || st.got.ID() != want.ID() {
			t.Errorf("%s: wire %x, want %x", st.name, st.got.Encode(), want.Encode())
		}
		if !sameEnvelope(st.got.Primary, want.Primary) {
			t.Errorf("%s: primary envelope differs from Seal's", st.name)
		}
	}

	for _, k := range []int{0, 1, 4} {
		reg, rec, atts := dataPayloadWith(k)
		got := sealFrame(reg, 1, rec, atts)
		if want := evidence.AppendEnvelopes(legacyFrame(reg, msgData, 1, rec.Encode()), atts); !bytes.Equal(got, want) {
			t.Errorf("data frame with %d attachments: %x, want %x", k, got, want)
		}
	}

	ev := statements[0].got
	if got, want := reg.SealedPayload(1, msgEvidence, ev.Encode()), legacyFrame(reg, msgEvidence, 1, ev.Encode()); !bytes.Equal(got, want) {
		t.Errorf("evidence-flood frame: %x, want %x", got, want)
	}

	junk := make([]byte, bogusJunk)
	rng := sim.NewRNG(9)
	for i := range junk {
		junk[i] = byte(rng.Uint64())
	}
	if got, want := bogusFrame(reg, 1, sim.NewRNG(9)), legacyFrame(reg, msgEvidence, 1, junk); !bytes.Equal(got, want) {
		t.Errorf("bogus-flood frame: %x, want %x", got, want)
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

// hashLog wraps the simulated network and keeps every payload handed to
// Send or SendDirect with its route, class and digest at the time of
// sending.
type hashLog struct {
	*network.Network
	sent []hashedPayload
}

type hashedPayload struct {
	from, to network.NodeID
	class    network.Class
	payload  []byte
	sum      [sha256.Size]byte
}

func (l *hashLog) Send(src, dst network.NodeID, class network.Class, payload []byte) bool {
	l.sent = append(l.sent, hashedPayload{src, dst, class, payload, sha256.Sum256(payload)})
	return l.Network.Send(src, dst, class, payload)
}

func (l *hashLog) SendDirect(from, to network.NodeID, class network.Class, payload []byte) bool {
	l.sent = append(l.sent, hashedPayload{from, to, class, payload, sha256.Sum256(payload)})
	return l.Network.SendDirect(from, to, class, payload)
}

// loggedBehaviors are the runs loggedRun is driven through: none, a
// corrupt task, an equivocating one and a bogus evidence flood.
var loggedBehaviors = []struct {
	name     string
	behavior *Behavior
}{
	{"fault-free", nil},
	{"corrupt-task", &Behavior{OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
		if rec.Logical == "c1" {
			rec.Value = []byte("corrupted!")
		}
		return rec, 0, true
	}}},
	{"equivocate", &Behavior{OnOutput: func(rec evidence.Record, consumer flow.TaskID) (evidence.Record, sim.Time, bool) {
		if _, idx := plan.SplitReplica(consumer); rec.Logical == "c1" && idx%2 == 0 {
			rec.Value = append([]byte("fork:"), rec.Value...)
		}
		return rec, 0, true
	}}},
	{"bogus-flood", &Behavior{BogusEvidencePerPeriod: 4}},
}

// loggedRun runs a chain of three on a full mesh of six, f = 1, for 20
// periods through a hashLog, with behavior (if any) installed on c1#0's
// host from period 4. It returns the harness, that victim and the log.
func loggedRun(t *testing.T, behavior *Behavior) (*harness, network.NodeID, *hashLog) {
	var log *hashLog
	g := flow.Chain(3, 25*sim.Millisecond, sim.Millisecond, 64, flow.CritA)
	h := newHarnessOn(t, g, 6, 1, 11, func(nw *network.Network) network.Transport {
		log = &hashLog{Network: nw}
		return log
	})
	victim := h.nodeOf("c1#0")
	if behavior != nil {
		h.k.At(4*h.strategy.Base.Period-1, func() { h.sys.SetBehavior(victim, behavior) })
	}
	h.run(20)
	return h, victim, log
}

// TestReceiversNeverWritePayloads checks the read-only payload contract
// (network.Transport.Send) end to end. Receivers parse records,
// attachments and evidence in place, and a payload is shared by every
// edge and neighbor it goes to, so a write by any sender, relay or
// handler would change what other nodes see. After kernel runs without
// faults and under a corrupt task, an equivocating one and a bogus
// evidence flood, every payload sent must still hash as it did when it
// was sent.
func TestReceiversNeverWritePayloads(t *testing.T) {
	for _, tc := range loggedBehaviors {
		t.Run(tc.name, func(t *testing.T) {
			h, _, log := loggedRun(t, tc.behavior)
			kinds := map[byte]int{}
			for i, s := range log.sent {
				if sha256.Sum256(s.payload) != s.sum {
					t.Fatalf("payload %d (kind %q) was written after it was sent", i, s.payload[0])
				}
				kinds[s.payload[0]]++
			}
			if kinds[msgData] == 0 || (tc.behavior != nil && (kinds[msgEvidence] == 0 || len(h.evidences) == 0)) {
				t.Fatalf("sent %d data and %d evidence frames, %d pieces of evidence: the check is vacuous",
					kinds[msgData], kinds[msgEvidence], len(h.evidences))
			}
		})
	}
}

// TestEvidenceEndorsedOncePerNode pins what lets every endorsement be
// sealed afresh: a correct node endorses each evidence blob once
// (seenEvidence), so it never sends the same evidence frame to the same
// neighbor twice, however many neighbors flood the blob back to it.
func TestEvidenceEndorsedOncePerNode(t *testing.T) {
	for _, tc := range loggedBehaviors {
		t.Run(tc.name, func(t *testing.T) {
			h, victim, log := loggedRun(t, tc.behavior)
			type route struct {
				from, to network.NodeID
				sum      [sha256.Size]byte
			}
			seen := map[route]bool{}
			frames := 0
			for _, s := range log.sent {
				if s.class != network.ClassEvidence || s.from == victim {
					continue
				}
				r := route{s.from, s.to, s.sum}
				if seen[r] {
					t.Fatalf("node %d sent the same evidence frame to %d twice", s.from, s.to)
				}
				seen[r] = true
				frames++
			}
			if tc.behavior != nil && (frames == 0 || len(h.evidences) == 0) {
				t.Fatalf("correct nodes sent %d evidence frames, %d pieces of evidence: the check is vacuous",
					frames, len(h.evidences))
			}
		})
	}
}
