package evidence

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sig"
	"btr/internal/sim"
)

// Kind classifies evidence.
type Kind uint8

const (
	// KindEquivocation: two valid envelopes from the same node for the
	// same output slot with conflicting records. Cryptographic proof.
	KindEquivocation Kind = iota + 1
	// KindWrongOutput: a valid envelope whose record's value does not
	// match re-executing the (deterministic) logical task on the signed
	// inputs the record committed to. Cryptographic proof.
	KindWrongOutput
	// KindBadInput: a valid envelope committing (via InputsDigest) to an
	// attachment set containing an envelope with an invalid signature —
	// the producer endorsed garbage input. Cryptographic proof.
	KindBadInput
	// KindTiming: a valid envelope whose claimed SendOff lies outside the
	// slot the shared strategy schedules for that producer/period. Doing
	// the right thing at the wrong time (§4.2). Cryptographic proof.
	KindTiming
	// KindPathAccusation: a signed claim that a required message did not
	// traverse a path in time. Not independently provable; aggregated by
	// the threshold Attributor (§4.2's omission countermeasure).
	KindPathAccusation
	// KindBogus: an endorsement wrapper proving that some node endorsed
	// evidence that fails validation — counted against the endorser
	// (§4.3: "invalid evidence can be counted as evidence against the
	// signer").
	KindBogus
	// KindOverBudget: a signed declaration by the reporter that its local
	// fault set has grown past the plan capacity f — the guarantee is
	// suspended, not silently violated (Building on Quicksand's
	// detect-and-apologize stance). Accuses no one (Accused = -1); the
	// body is a BudgetVerdict.
	KindOverBudget
	// KindReconciled: the matching close: the reporter's fault set is
	// back within plan capacity and the bound is live again. Accuses no
	// one; the body is a BudgetVerdict.
	KindReconciled
)

func (k Kind) String() string {
	switch k {
	case KindEquivocation:
		return "equivocation"
	case KindWrongOutput:
		return "wrong-output"
	case KindBadInput:
		return "bad-input"
	case KindTiming:
		return "timing"
	case KindPathAccusation:
		return "path-accusation"
	case KindBogus:
		return "bogus-endorsement"
	case KindOverBudget:
		return "over-budget"
	case KindReconciled:
		return "reconciled"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Proof reports whether this kind is independently verifiable (true) or an
// aggregatable accusation (false). Budget verdicts convict nobody either
// way, so they are grouped with the non-proofs.
func (k Kind) Proof() bool {
	return k != KindPathAccusation && k != KindOverBudget && k != KindReconciled
}

// Accusation is the body of a KindPathAccusation: the reporter claims the
// message for Edge at Period did not arrive in time over Path.
type Accusation struct {
	Reporter network.NodeID
	Path     []network.NodeID // every node the message should have crossed
	Producer flow.TaskID
	Consumer flow.TaskID
	Period   uint64
}

// Encode serializes the accusation.
func (a Accusation) Encode() []byte {
	var w buf
	w.u32(uint32(a.Reporter))
	w.u32(uint32(len(a.Path)))
	for _, n := range a.Path {
		w.u32(uint32(n))
	}
	w.str(string(a.Producer))
	w.str(string(a.Consumer))
	w.u64(a.Period)
	return w.b
}

// DecodeAccusation parses an encoded accusation.
func DecodeAccusation(b []byte) (Accusation, error) {
	rd := &reader{b: b}
	var a Accusation
	a.Reporter = network.NodeID(rd.u32())
	n := int(rd.u32())
	if rd.err == nil && n > 1<<12 {
		return Accusation{}, fmt.Errorf("evidence: implausible path length %d", n)
	}
	for i := 0; i < n; i++ {
		a.Path = append(a.Path, network.NodeID(rd.u32()))
	}
	a.Producer = flow.TaskID(rd.str())
	a.Consumer = flow.TaskID(rd.str())
	a.Period = rd.u64()
	if err := rd.done(); err != nil {
		return Accusation{}, err
	}
	return a, nil
}

// BudgetVerdict is the body of a KindOverBudget / KindReconciled
// statement: the reporter's local active-fault count versus the plan
// capacity f at the moment the budget boundary was crossed.
type BudgetVerdict struct {
	Reporter network.NodeID
	Active   uint32 // convicted faults the reporter holds active
	Capacity uint32 // the plan's fault budget f
}

// Encode serializes the verdict.
func (b BudgetVerdict) Encode() []byte {
	var w buf
	w.u32(uint32(b.Reporter))
	w.u32(b.Active)
	w.u32(b.Capacity)
	return w.b
}

// DecodeBudgetVerdict parses an encoded budget verdict.
func DecodeBudgetVerdict(p []byte) (BudgetVerdict, error) {
	rd := &reader{b: p}
	var b BudgetVerdict
	b.Reporter = network.NodeID(rd.u32())
	b.Active = rd.u32()
	b.Capacity = rd.u32()
	if err := rd.done(); err != nil {
		return BudgetVerdict{}, err
	}
	return b, nil
}

// Evidence is one typed, transportable piece of evidence.
//
// Decoded evidence retains its original wire bytes and its ID (see
// Decode), so re-encoding a received blob — the flood-forwarding hot path
// — is a slice reuse instead of a re-serialization. Evidence must be
// treated as immutable once decoded or canonicalized; code that needs a
// modified copy must build a fresh value field by field.
type Evidence struct {
	Kind     Kind
	Accused  network.NodeID // -1 for path accusations (not yet attributed)
	Reporter network.NodeID
	// DetectedAt is the reporter-local detection time; all correct nodes
	// derive the mode-change activation instant from it.
	DetectedAt sim.Time
	// Primary is the main signed statement (the faulty record; or the
	// accusation for KindPathAccusation; or the endorsed blob's wrapper
	// for KindBogus).
	Primary sig.Envelope
	// Secondary is the conflicting record (equivocation) — unused
	// otherwise.
	Secondary sig.Envelope
	// Attachments carry the committed input envelopes (wrong-output /
	// bad-input re-execution).
	Attachments []sig.Envelope

	// wire is the retained original encoding (set by Decode/Canon) and id
	// its memoized identifier. Both ride along in value copies.
	wire  []byte
	id    [16]byte
	hasID bool
}

// EncodedSize returns len(Encode()) without encoding.
func (e Evidence) EncodedSize() int {
	n := 1 + 4 + 4 + 8 + 4 + e.Primary.EncodedSize() + 4
	if e.Secondary.Sig != nil {
		n += e.Secondary.EncodedSize()
	}
	return n + EnvelopesSize(e.Attachments)
}

// Encode serializes evidence for transport. For decoded (or Canon'd)
// evidence this returns the retained wire bytes — callers must not mutate
// the result.
func (e Evidence) Encode() []byte {
	if e.wire != nil {
		return e.wire
	}
	return e.AppendTo(make([]byte, 0, e.EncodedSize()))
}

// AppendTo appends the evidence encoding to dst and returns the extended
// slice (zero allocations when dst has capacity).
func (e Evidence) AppendTo(dst []byte) []byte {
	if e.wire != nil {
		return append(dst, e.wire...)
	}
	w := buf{b: dst}
	w.u8(uint8(e.Kind))
	w.u32(uint32(e.Accused))
	w.u32(uint32(e.Reporter))
	w.i64(int64(e.DetectedAt))
	w.u32(uint32(e.Primary.EncodedSize()))
	w.b = e.Primary.AppendTo(w.b)
	if e.Secondary.Sig != nil { // absent Secondary encodes as empty
		w.u32(uint32(e.Secondary.EncodedSize()))
		w.b = e.Secondary.AppendTo(w.b)
	} else {
		w.u32(0)
	}
	w.b = AppendEnvelopes(w.b, e.Attachments)
	return w.b
}

// Canon returns e with its encoding and ID memoized, so subsequent
// Encode/ID calls are slice reuses. Locally raised evidence is Canon'd
// once before flooding; decoded evidence is already canonical.
func (e Evidence) Canon() Evidence {
	if e.wire == nil {
		e.wire = e.AppendTo(make([]byte, 0, e.EncodedSize()))
	}
	if !e.hasID {
		h := sha256.Sum256(e.wire)
		copy(e.id[:], h[:16])
		e.hasID = true
	}
	return e
}

// Decode parses encoded evidence; it is strict about framing so bogus
// blobs are rejected before any signature verification. The returned
// Evidence retains b as its canonical wire form (callers hand over
// ownership of b) and carries a precomputed ID, so forwarding a received
// blob re-encodes nothing.
func Decode(b []byte) (Evidence, error) {
	rd := &reader{b: b}
	var e Evidence
	e.Kind = Kind(rd.u8())
	e.Accused = network.NodeID(int32(rd.u32()))
	e.Reporter = network.NodeID(int32(rd.u32()))
	e.DetectedAt = sim.Time(rd.i64())
	pb := rd.lenView()
	sb := rd.lenView()
	if rd.err != nil {
		return Evidence{}, rd.err
	}
	var err error
	if e.Primary, err = sig.DecodeEnvelope(pb); err != nil {
		return Evidence{}, err
	}
	if len(sb) > 0 {
		if e.Secondary, err = sig.DecodeEnvelope(sb); err != nil {
			return Evidence{}, err
		}
	}
	if e.Attachments, err = DecodeEnvelopes(rd.b); err != nil {
		return Evidence{}, err
	}
	rd.b = nil
	e.wire = b
	h := sha256.Sum256(b)
	copy(e.id[:], h[:16])
	e.hasID = true
	return e, nil
}

// ID returns a stable 16-byte identifier (for dedup) derived from the
// encoded bytes. Decoded/Canon'd evidence returns the memoized value.
func (e Evidence) ID() [16]byte {
	if e.hasID {
		return e.id
	}
	h := sha256.Sum256(e.Encode())
	var id [16]byte
	copy(id[:], h[:16])
	return id
}

// Recompute re-executes logical task `task` for `period` on the given
// decoded input records, returning the expected output value. ok=false
// means the task cannot be re-executed (e.g., a source sampling the
// physical world), in which case wrong-output proofs are impossible and
// detection falls back to accusations.
type Recompute func(task flow.TaskID, period uint64, inputs []Record) (value []byte, ok bool)

// SendWindow returns the scheduled send window (inclusive offsets) for a
// producer replica in the current mode. ok=false if the validator does not
// know a window (no timing judgment possible).
type SendWindow func(producer flow.TaskID, period uint64) (lo, hi sim.Time, ok bool)

// Validator validates evidence. Validation cost is intentionally bounded:
// at most 2 + len(Attachments) signature checks and one re-execution.
type Validator struct {
	Reg       *sig.Registry
	Recompute Recompute
	Window    SendWindow
}

// Common validation errors (wrapped with detail).
var (
	ErrBadSignature = errors.New("evidence: bad signature")
	ErrMalformed    = errors.New("evidence: malformed")
	ErrNotAFault    = errors.New("evidence: statements are consistent — no fault shown")
)

// Validate checks evidence of any kind. A nil error means any correct node
// must accept the evidence and act on it.
func (v *Validator) Validate(e Evidence) error {
	switch e.Kind {
	case KindEquivocation:
		return v.validateEquivocation(e)
	case KindWrongOutput:
		return v.validateWrongOutput(e)
	case KindBadInput:
		return v.validateBadInput(e)
	case KindTiming:
		return v.validateTiming(e)
	case KindPathAccusation:
		return v.validateAccusation(e)
	case KindBogus:
		return v.validateBogus(e)
	case KindOverBudget, KindReconciled:
		return v.validateBudget(e)
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrMalformed, e.Kind)
	}
}

func (v *Validator) checkedRecord(env sig.Envelope) (Record, error) {
	if !v.Reg.Check(env) {
		return Record{}, fmt.Errorf("%w: envelope from %d", ErrBadSignature, env.Signer)
	}
	r, err := DecodeRecord(env.Body)
	if err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if r.Node != env.Signer {
		return Record{}, fmt.Errorf("%w: record names node %d but signed by %d", ErrMalformed, r.Node, env.Signer)
	}
	return r, nil
}

func (v *Validator) validateEquivocation(e Evidence) error {
	r1, err := v.checkedRecord(e.Primary)
	if err != nil {
		return err
	}
	r2, err := v.checkedRecord(e.Secondary)
	if err != nil {
		return err
	}
	if e.Primary.Signer != e.Secondary.Signer {
		return fmt.Errorf("%w: different signers", ErrMalformed)
	}
	if !SameSlot(r1, r2) {
		return fmt.Errorf("%w: records for different slots", ErrMalformed)
	}
	if !Conflicts(r1, r2) {
		return ErrNotAFault
	}
	if e.Accused != e.Primary.Signer {
		return fmt.Errorf("%w: accused %d is not the signer %d", ErrMalformed, e.Accused, e.Primary.Signer)
	}
	return nil
}

func (v *Validator) validateWrongOutput(e Evidence) error {
	r, err := v.checkedRecord(e.Primary)
	if err != nil {
		return err
	}
	if DigestEnvelopes(e.Attachments) != r.InputsDigest {
		return fmt.Errorf("%w: attachments do not match the record's input digest", ErrMalformed)
	}
	// Wrong-output proofs need every attachment valid (an invalid one
	// under a matching digest is a *bad-input* proof; demand the right
	// kind). All-or-nothing, so one memoized batch sweep checks the
	// signatures and the loop below only decodes.
	if i, ok := v.Reg.CheckBatch(e.Attachments); !ok {
		return fmt.Errorf("%w: attachment %d invalid (use bad-input): %v", ErrMalformed, i, ErrBadSignature)
	}
	inputs := make([]Record, 0, len(e.Attachments))
	for _, env := range e.Attachments {
		ir, err := DecodeRecord(env.Body)
		if err != nil || ir.Node != env.Signer {
			return fmt.Errorf("%w: attachment record invalid (use bad-input)", ErrMalformed)
		}
		inputs = append(inputs, ir)
	}
	want, ok := v.Recompute(r.Logical, r.Period, inputs)
	if !ok {
		return fmt.Errorf("%w: task %q not re-executable", ErrMalformed, r.Logical)
	}
	if string(want) == string(r.Value) {
		return ErrNotAFault
	}
	if e.Accused != e.Primary.Signer {
		return fmt.Errorf("%w: accused %d is not the signer %d", ErrMalformed, e.Accused, e.Primary.Signer)
	}
	return nil
}

func (v *Validator) validateBadInput(e Evidence) error {
	r, err := v.checkedRecord(e.Primary)
	if err != nil {
		return err
	}
	if DigestEnvelopes(e.Attachments) != r.InputsDigest {
		return fmt.Errorf("%w: attachments do not match the record's input digest", ErrMalformed)
	}
	for _, env := range e.Attachments {
		if _, err := v.checkedRecord(env); err != nil {
			// Found the endorsed-garbage input: the producer committed to
			// it via the digest, so the proof stands.
			if e.Accused != e.Primary.Signer {
				return fmt.Errorf("%w: accused %d is not the signer %d", ErrMalformed, e.Accused, e.Primary.Signer)
			}
			return nil
		}
	}
	return ErrNotAFault
}

func (v *Validator) validateTiming(e Evidence) error {
	r, err := v.checkedRecord(e.Primary)
	if err != nil {
		return err
	}
	lo, hi, ok := v.Window(r.Producer, r.Period)
	if !ok {
		return fmt.Errorf("%w: no schedule window known for %q", ErrMalformed, r.Producer)
	}
	if r.SendOff >= lo && r.SendOff <= hi {
		return ErrNotAFault
	}
	if e.Accused != e.Primary.Signer {
		return fmt.Errorf("%w: accused %d is not the signer %d", ErrMalformed, e.Accused, e.Primary.Signer)
	}
	return nil
}

func (v *Validator) validateAccusation(e Evidence) error {
	if !v.Reg.Check(e.Primary) {
		return fmt.Errorf("%w: accusation envelope", ErrBadSignature)
	}
	a, err := DecodeAccusation(e.Primary.Body)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if a.Reporter != e.Primary.Signer || a.Reporter != e.Reporter {
		return fmt.Errorf("%w: accusation reporter mismatch", ErrMalformed)
	}
	if len(a.Path) == 0 {
		return fmt.Errorf("%w: empty path", ErrMalformed)
	}
	if e.Accused != -1 {
		return fmt.Errorf("%w: path accusations must not pre-attribute", ErrMalformed)
	}
	return nil
}

func (v *Validator) validateBogus(e Evidence) error {
	// Primary: endorser's signature over the (encoded) inner evidence.
	if !v.Reg.Check(e.Primary) {
		return fmt.Errorf("%w: endorsement envelope", ErrBadSignature)
	}
	inner, err := Decode(e.Primary.Body)
	if err != nil {
		// Endorsing an undecodable blob is itself proof.
		if e.Accused != e.Primary.Signer {
			return fmt.Errorf("%w: accused is not the endorser", ErrMalformed)
		}
		return nil
	}
	if inner.Kind == KindBogus {
		return fmt.Errorf("%w: nested bogus evidence", ErrMalformed)
	}
	if err := v.Validate(inner); err == nil {
		return ErrNotAFault // the endorsed evidence is fine
	}
	if e.Accused != e.Primary.Signer {
		return fmt.Errorf("%w: accused is not the endorser", ErrMalformed)
	}
	return nil
}

func (v *Validator) validateBudget(e Evidence) error {
	if !v.Reg.Check(e.Primary) {
		return fmt.Errorf("%w: budget verdict envelope", ErrBadSignature)
	}
	b, err := DecodeBudgetVerdict(e.Primary.Body)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if b.Reporter != e.Primary.Signer || b.Reporter != e.Reporter {
		return fmt.Errorf("%w: budget verdict reporter mismatch", ErrMalformed)
	}
	if e.Accused != -1 {
		return fmt.Errorf("%w: budget verdicts accuse no one", ErrMalformed)
	}
	if e.Kind == KindOverBudget && b.Active <= b.Capacity {
		return fmt.Errorf("%w: %d active within capacity %d", ErrNotAFault, b.Active, b.Capacity)
	}
	if e.Kind == KindReconciled && b.Active > b.Capacity {
		return fmt.Errorf("%w: %d active still beyond capacity %d", ErrMalformed, b.Active, b.Capacity)
	}
	return nil
}

// Attributor aggregates path accusations and convicts a node once at
// least Threshold distinct *reporters* have accused paths containing it --
// the paper's "if a node is on a large number of problematic paths, it may
// be possible to attribute the problem to that node" (§4.2).
//
// Counting distinct reporters (rather than raw accusations) makes framing
// expensive: with Threshold = f+1, the f compromised nodes cannot convict
// a correct node by themselves, and a correct reporter never appears in
// its own accusations' paths, so reporting real faults is safe.
//
// Known limitation (inherent to accusations; the paper flags omission
// attribution as an open challenge): on multi-hop paths, an innocent relay
// that happens to sit on many problematic paths can cross the threshold
// together with the real culprit. Deployments that care should use
// topologies with direct or dual redundant paths (see network.DualBus).
type Attributor struct {
	Threshold int
	seen      map[string]bool                            // (path, reporter) dedup
	reporters map[network.NodeID]map[network.NodeID]bool // accused -> distinct reporters
	convicted map[network.NodeID]bool
}

// NewAttributor returns an attributor with the given conviction threshold
// (minimum 1).
func NewAttributor(threshold int) *Attributor {
	if threshold < 1 {
		threshold = 1
	}
	return &Attributor{
		Threshold: threshold,
		seen:      map[string]bool{},
		reporters: map[network.NodeID]map[network.NodeID]bool{},
		convicted: map[network.NodeID]bool{},
	}
}

// pathKey canonicalizes a (path set, reporter) pair for dedup.
func pathKey(path []network.NodeID, reporter network.NodeID) string {
	s := append([]network.NodeID(nil), path...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var w buf
	w.u32(uint32(reporter))
	for _, n := range s {
		w.u32(uint32(n))
	}
	return string(w.b)
}

// Add records an accusation and returns any nodes newly convicted by it
// (sorted). Duplicate (path, reporter) pairs are ignored, as is the
// reporter's own presence on the path (a receiver is always an endpoint of
// the paths it reports; counting it would punish honest reporting).
func (a *Attributor) Add(path []network.NodeID, reporter network.NodeID) []network.NodeID {
	key := pathKey(path, reporter)
	if a.seen[key] {
		return nil
	}
	a.seen[key] = true
	var newly []network.NodeID
	for _, n := range path {
		if n == reporter {
			continue
		}
		rs := a.reporters[n]
		if rs == nil {
			rs = map[network.NodeID]bool{}
			a.reporters[n] = rs
		}
		rs[reporter] = true
		if !a.convicted[n] && len(rs) >= a.Threshold {
			a.convicted[n] = true
			newly = append(newly, n)
		}
	}
	sort.Slice(newly, func(i, j int) bool { return newly[i] < newly[j] })
	return newly
}

// Suspicion returns the number of distinct reporters that have accused
// paths containing n.
func (a *Attributor) Suspicion(n network.NodeID) int { return len(a.reporters[n]) }

// Convicted reports whether n has crossed the attribution threshold.
func (a *Attributor) Convicted(n network.NodeID) bool { return a.convicted[n] }
