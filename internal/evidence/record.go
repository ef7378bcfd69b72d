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
// input: decoders copy it exactly once, into the value they return.
func (r *reader) view(n int) []byte {
	if r.err != nil || n < 0 || len(r.b) < n {
		r.err = errShort
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// lenView is view for a u32-length-prefixed field.
func (r *reader) lenView() []byte { return r.view(int(r.u32())) }

func (r *reader) bytes() []byte { return bytes.Clone(r.lenView()) }

func (r *reader) str() string { return string(r.lenView()) }

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("evidence: %d trailing bytes", len(r.b))
	}
	return nil
}

// Encode serializes the record into one exactly sized buffer.
func (r Record) Encode() []byte {
	size := 4 + len(r.Producer) + 4 + len(r.Logical) + 4 + 8 + 8 +
		4 + len(r.Value) + len(r.InputsDigest)
	w := buf{b: make([]byte, 0, size)}
	w.str(string(r.Producer))
	w.str(string(r.Logical))
	w.u32(uint32(r.Node))
	w.u64(r.Period)
	w.i64(int64(r.SendOff))
	w.bytes(r.Value)
	w.raw(r.InputsDigest[:])
	return w.b
}

// DecodeRecord parses an encoded record, rejecting malformed input. The
// record owns its fields; nothing aliases b.
func DecodeRecord(b []byte) (Record, error) {
	rd := &reader{b: b}
	var r Record
	r.Producer = flow.TaskID(rd.str())
	r.Logical = flow.TaskID(rd.str())
	r.Node = network.NodeID(rd.u32())
	r.Period = rd.u64()
	r.SendOff = sim.Time(rd.i64())
	r.Value = rd.bytes()
	copy(r.InputsDigest[:], rd.view(len(r.InputsDigest)))
	if err := rd.done(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// scratchPool recycles encoding scratch buffers so steady-state digest
// and marshaling work allocates nothing (the PR 3 kernel's pooled-record
// pattern, applied to the codec).
var scratchPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// DigestEnvelopes computes the commitment over an ordered set of input
// envelopes. Envelope encodings are streamed through a pooled scratch
// buffer; no per-call allocations in steady state.
func DigestEnvelopes(envs []sig.Envelope) [32]byte {
	h := sha256.New()
	sp := scratchPool.Get().(*[]byte)
	scratch := (*sp)[:0]
	for _, e := range envs {
		var lenb [4]byte
		binary.LittleEndian.PutUint32(lenb[:], uint32(e.EncodedSize()))
		h.Write(lenb[:])
		scratch = e.AppendTo(scratch[:0])
		h.Write(scratch)
	}
	*sp = scratch
	scratchPool.Put(sp)
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

// minEnvelopeWire is the smallest encoding of one list entry: length
// prefix, envelope header, empty body, signature.
const minEnvelopeWire = 4 + 8 + sig.SignatureSize

// DecodeEnvelopes parses a count-prefixed envelope list. The envelopes
// own their bytes; nothing aliases b.
func DecodeEnvelopes(b []byte) ([]sig.Envelope, error) {
	rd := &reader{b: b}
	n := int(rd.u32())
	if rd.err != nil {
		return nil, rd.err
	}
	if n > 1<<16 {
		return nil, fmt.Errorf("evidence: implausible envelope count %d", n)
	}
	// The count is unauthenticated: reserve only what the remaining bytes
	// could actually hold.
	envs := make([]sig.Envelope, 0, min(n, len(rd.b)/minEnvelopeWire))
	for i := 0; i < n; i++ {
		eb := rd.lenView()
		if rd.err != nil {
			return nil, rd.err
		}
		e, err := sig.DecodeEnvelope(eb)
		if err != nil {
			return nil, err
		}
		envs = append(envs, e)
	}
	if err := rd.done(); err != nil {
		return nil, err
	}
	return envs, nil
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
