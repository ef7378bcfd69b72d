// Package evidence implements BTR's self-certifying fault evidence (§4.2).
//
// Since there are no trusted nodes, compromised nodes may report
// nonexistent faults or lie about others; therefore all actionable
// evidence must be independently verifiable. The package provides:
//
//   - Record: the signed statement embedded in every dataflow message. A
//     record names the producing (replica) task, the logical task, the
//     period, the claimed send offset, the output value, and a digest of
//     the exact signed input records the producer used. The digest is the
//     accountability hook: a producer commits to its inputs, so any
//     verifier holding those inputs can re-execute the deterministic task
//     and check the output (the PeerReview approach, adapted to periodic
//     dataflow).
//
//   - Evidence: a typed proof. Commission faults yield cryptographic
//     proofs (equivocation, wrong-output, bad-input, timing) that any node
//     can validate with the key registry plus the shared strategy.
//     Omission faults cannot be proven directly (§4.2: "there is no direct
//     way to prove that a faulty node failed to send"), so they yield
//     signed path accusations aggregated by a threshold attributor.
//
//   - Validator: validates any Evidence cheaply (fixed number of signature
//     checks plus one bounded re-execution), so bogus evidence can be
//     "quickly recognized and rejected" (§4.3) and counted against its
//     endorser.
package evidence

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"btr/internal/flow"
	"btr/internal/network"
	"btr/internal/sig"
	"btr/internal/sim"
)

// Record is the body of every signed dataflow message.
type Record struct {
	Producer flow.TaskID    // replica instance, e.g. "fc.law#1"
	Logical  flow.TaskID    // underlying logical task, e.g. "fc.law"
	Node     network.NodeID // producing node (must match the signer)
	Period   uint64
	SendOff  sim.Time // claimed send offset within the period
	Value    []byte
	// InputsDigest commits to the exact encoded envelopes of the input
	// records the producer used (in the order attached). Zero for
	// sources.
	InputsDigest [32]byte
}

// buf is a tiny append-only binary writer; all encodings in this package
// are little-endian with u32 length prefixes.
type buf struct{ b []byte }

func (w *buf) u8(v uint8)     { w.b = append(w.b, v) }
func (w *buf) u32(v uint32)   { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *buf) u64(v uint64)   { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *buf) i64(v int64)    { w.u64(uint64(v)) }
func (w *buf) bytes(v []byte) { w.u32(uint32(len(v))); w.b = append(w.b, v...) }
func (w *buf) str(v string)   { w.u32(uint32(len(v))); w.b = append(w.b, v...) }
func (w *buf) raw(v []byte)   { w.b = append(w.b, v...) }

type reader struct {
	b   []byte
	err error
}

var errShort = errors.New("evidence: truncated input")

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.err = errShort
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.err = errShort
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.err = errShort
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// view returns the next n bytes without copying. The result aliases the
// input and is capacity-capped, so an append to it reallocates instead
// of overwriting what follows. The in-place parsers (ParseRecord,
// ParseEnvelopes, Parse) hand it out as is.
func (r *reader) view(n int) []byte {
	if r.err != nil || n < 0 || len(r.b) < n {
		r.err = errShort
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// lenView is view for a u32-length-prefixed field.
func (r *reader) lenView() []byte { return r.view(int(r.u32())) }

// id reads a length-prefixed task ID through the intern table.
func (r *reader) id() flow.TaskID { return internID(r.lenView()) }

// Task-ID interning. Every received record names its producer and logical
// task, and an accusation its producer and consumer; a deployment has a
// few dozen distinct IDs, so decoding them into fresh strings was one
// allocation per field per arrival. internID returns the one shared copy
// instead: a hit is a map lookup keyed by the bytes themselves, which
// does not allocate. The IDs are chosen by signers, and a Byzantine signer
// can mint new ones at will, so the table is bounded like the verify
// memo: at most internCap entries of at most internMaxLen bytes each, and
// a full table is cleared. Dropping entries is always sound, since an
// interned ID is just an immutable string equal to its input.
const (
	internCap    = 4096
	internMaxLen = 128
)

var interned = struct {
	sync.RWMutex
	m map[string]flow.TaskID
}{m: make(map[string]flow.TaskID, 64)}

// internID returns a string equal to b, shared with every earlier call
// for the same bytes while the table holds them. It never aliases b.
func internID(b []byte) flow.TaskID {
	if len(b) > internMaxLen {
		return flow.TaskID(b)
	}
	interned.RLock()
	id, ok := interned.m[string(b)]
	interned.RUnlock()
	if ok {
		return id
	}
	id = flow.TaskID(b)
	interned.Lock()
	if len(interned.m) >= internCap {
		clear(interned.m)
	}
	interned.m[string(id)] = id
	interned.Unlock()
	return id
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("evidence: %d trailing bytes", len(r.b))
	}
	return nil
}

// EncodedSize returns len(Encode()) without encoding.
func (r Record) EncodedSize() int {
	return 4 + len(r.Producer) + 4 + len(r.Logical) + 4 + 8 + 8 +
		4 + len(r.Value) + len(r.InputsDigest)
}

// AppendTo appends the record encoding to dst and returns the extended
// slice (zero allocations when dst has capacity).
func (r Record) AppendTo(dst []byte) []byte {
	w := buf{b: dst}
	w.str(string(r.Producer))
	w.str(string(r.Logical))
	w.u32(uint32(r.Node))
	w.u64(r.Period)
	w.i64(int64(r.SendOff))
	w.bytes(r.Value)
	w.raw(r.InputsDigest[:])
	return w.b
}

// Encode serializes the record into one exactly sized buffer.
func (r Record) Encode() []byte {
	return r.AppendTo(make([]byte, 0, r.EncodedSize()))
}

// ParseRecord parses an encoded record in place, rejecting malformed
// input. Value aliases b and is capacity-capped, so an append to it
// reallocates instead of overwriting the digest behind it; Producer and
// Logical come from the task-ID intern table (internID). b must stay
// unmodified while the record is in use; a record kept no longer than
// the envelope it came from costs no allocation.
func ParseRecord(b []byte) (Record, error) {
	rd := &reader{b: b}
	var r Record
	r.Producer = rd.id()
	r.Logical = rd.id()
	r.Node = network.NodeID(rd.u32())
	r.Period = rd.u64()
	r.SendOff = sim.Time(rd.i64())
	r.Value = rd.lenView()
	copy(r.InputsDigest[:], rd.view(len(r.InputsDigest)))
	if err := rd.done(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// DigestEnvelopes computes the commitment over an ordered set of input
// envelopes: each envelope's encoded length and encoding, streamed into
// the hash field by field, so it allocates nothing.
func DigestEnvelopes(envs []sig.Envelope) [32]byte {
	h := sha256.New()
	var head [12]byte
	for _, e := range envs {
		binary.LittleEndian.PutUint32(head[0:], uint32(e.EncodedSize()))
		h.Write(sig.AppendEnvelopeHeader(head[:4], e.Signer, len(e.Body)))
		h.Write(e.Body)
		h.Write(e.Sig)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// EnvelopesSize returns len(EncodeEnvelopes(envs)) without encoding.
func EnvelopesSize(envs []sig.Envelope) int {
	n := 4
	for _, e := range envs {
		n += 4 + e.EncodedSize()
	}
	return n
}

// AppendEnvelopes appends the count-prefixed envelope-list encoding to
// dst and returns the extended slice (zero allocations when dst has
// capacity).
func AppendEnvelopes(dst []byte, envs []sig.Envelope) []byte {
	w := buf{b: dst}
	w.u32(uint32(len(envs)))
	for _, e := range envs {
		w.u32(uint32(e.EncodedSize()))
		w.b = e.AppendTo(w.b)
	}
	return w.b
}

// EncodeEnvelopes serializes a list of envelopes (count-prefixed).
func EncodeEnvelopes(envs []sig.Envelope) []byte {
	return AppendEnvelopes(make([]byte, 0, EnvelopesSize(envs)), envs)
}

// EnvelopeList is a count-prefixed envelope list read where it lies:
// ParseEnvelopeList checks its structure once, and every read walks the
// entries again. Each envelope it yields aliases the list's bytes (see
// sig.ParseEnvelope), so they must stay unmodified while the list or an
// envelope taken from it is in use. The list itself allocates nothing.
type EnvelopeList struct {
	entries []byte // the encoded entries, after the count
	n       int
}

// ParseEnvelopeList checks a count-prefixed envelope list, as
// AppendEnvelopes writes it, and returns it as a list view.
func ParseEnvelopeList(b []byte) (EnvelopeList, error) {
	rd := &reader{b: b}
	n := int(rd.u32())
	if rd.err != nil {
		return EnvelopeList{}, rd.err
	}
	if n > 1<<16 {
		return EnvelopeList{}, fmt.Errorf("evidence: implausible envelope count %d", n)
	}
	l := EnvelopeList{entries: rd.b, n: n}
	if err := l.walk(func(sig.Envelope) bool { return true }); err != nil {
		return EnvelopeList{}, err
	}
	return l, nil
}

// walk is the one list walker: it parses the entries in order, handing
// each envelope to yield until yield returns false, and fails on a
// malformed entry or on bytes after the last one.
func (l EnvelopeList) walk(yield func(sig.Envelope) bool) error {
	rd := &reader{b: l.entries}
	for i := 0; i < l.n; i++ {
		eb := rd.lenView()
		if rd.err != nil {
			return rd.err
		}
		e, err := sig.ParseEnvelope(eb)
		if err != nil {
			return err
		}
		if !yield(e) {
			return nil
		}
	}
	return rd.done()
}

// Len returns the number of envelopes in the list.
func (l EnvelopeList) Len() int { return l.n }

// All hands the envelopes to yield in order until yield returns false;
// l.All is an iter.Seq.
func (l EnvelopeList) All(yield func(sig.Envelope) bool) { _ = l.walk(yield) }

// Digest returns DigestEnvelopes of the list's envelopes. That digest
// covers each entry's length prefix and encoding, which are the list's
// bytes after the count, so it hashes them where they lie.
func (l EnvelopeList) Digest() [32]byte { return sha256.Sum256(l.entries) }

// Envelopes collects the list's envelopes into a new slice.
func (l EnvelopeList) Envelopes() []sig.Envelope {
	envs := make([]sig.Envelope, 0, l.n)
	l.All(func(e sig.Envelope) bool {
		envs = append(envs, e)
		return true
	})
	return envs
}

// ParseEnvelopes parses a count-prefixed envelope list in place into a
// slice: every envelope's Body and Sig alias b (see ParseEnvelopeList),
// so b must stay unmodified while any of them is in use. An envelope the
// caller keeps keeps all of b alive.
func ParseEnvelopes(b []byte) ([]sig.Envelope, error) {
	l, err := ParseEnvelopeList(b)
	if err != nil {
		return nil, err
	}
	return l.Envelopes(), nil
}

// SameSlot reports whether two records claim the same output slot (same
// logical task and period) — the precondition for equivocation.
func SameSlot(a, b Record) bool {
	return a.Logical == b.Logical && a.Period == b.Period && a.Node == b.Node
}

// Conflicts reports whether two same-slot records are mutually
// inconsistent (different value or different input commitment).
func Conflicts(a, b Record) bool {
	return !bytes.Equal(a.Value, b.Value) || a.InputsDigest != b.InputsDigest ||
		a.SendOff != b.SendOff || a.Producer != b.Producer
}
