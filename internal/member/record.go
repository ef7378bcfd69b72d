// Package member implements BTR's online membership layer: signed,
// monotonically-numbered epoch records describing which node slots are
// active (and any administrative link changes), a hash-chained log that
// validates and applies them, and a planner that turns each epoch into a
// full per-epoch recovery strategy through the incremental plan engine.
//
// The design follows the "fault masking and reconfiguration are the same
// mechanism at different timescales" observation (Helland & Campbell,
// Building on Quicksand): planning-wise a retired slot is exactly a
// permanently excluded node, so epoch re-planning rides the same
// canonical-predecessor delta chain the fault planner uses, and a warm
// cache replays whole churn sequences without synthesizing anything.
//
// Trust model and soundness: epoch records are signed by the operator
// key (sig.Registry's configuration authority), which the Byzantine
// adversary never controls — compromised nodes cannot forge, replay, or
// reorder reconfigurations (the chain binds each record to its
// predecessor's content hash, and logs accept only the next number).
// Node slots keep their identities and keys across epochs and are never
// reassigned — a "replacement" is a fresh slot joining plus the old slot
// retiring — so evidence signed in a prior epoch remains attributable
// forever: a signature over a record names the same physical signer in
// every epoch, and fault sets stay append-only across reconfigurations.
package member

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"btr/internal/network"
	"btr/internal/sig"
	"btr/internal/sim"
)

// Record is one membership epoch: the full active-member set after the
// epoch activates, plus an administrative link delta relative to the
// predecessor epoch's wiring. Records are immutable wire artifacts;
// State/Log derive everything else.
type Record struct {
	// Num is the epoch number: 0 for genesis, then strictly +1.
	Num uint64
	// Prev is the predecessor record's content ID (zero for genesis),
	// chaining the log so stale or replayed records are rejectable
	// without any global state.
	Prev [16]byte
	// ActivateAt is the scheduled activation instant. It is zero in the
	// prepare phase; the commit record carries the final instant every
	// correct node switches at.
	ActivateAt sim.Time
	// Members lists the active slots once this epoch activates (sorted,
	// unique; enforced by the codec).
	Members []network.NodeID
	// AddLinks and DropLinks administratively change the wiring
	// (commissioning a cable alongside a joining slot, retiring one with
	// a leaving slot). Deltas apply to the predecessor epoch's wiring.
	AddLinks  []network.Link
	DropLinks [][2]network.NodeID
}

// recordMagic versions the wire format.
const recordMagic = "me1"

// errTruncated rejects short inputs before any field parsing.
var errTruncated = errors.New("member: truncated record")

// EncodedSize returns len(Encode()) without encoding.
func (r Record) EncodedSize() int {
	return len(recordMagic) + 8 + 16 + 8 +
		2 + 4*len(r.Members) +
		2 + 24*len(r.AddLinks) +
		2 + 8*len(r.DropLinks)
}

// MaxElems is the largest element count a record section (Members,
// AddLinks, DropLinks) can carry: the counts travel as uint16, so
// anything larger cannot round-trip. AppendTo enforces it as an
// invariant — the earlier behavior silently truncated the count through
// uint16(...), emitting a frame that decodes to a different record and
// surfaces as an inexplicable signature/framing mismatch at the
// receiver.
const MaxElems = 1<<16 - 1

// checkElems panics with the named invariant when a section exceeds the
// wire format's count range. Record construction is operator-side
// harness code, so an oversized section is a programming error, not
// adversarial input — panicking at the encode site beats shipping a
// frame that cannot decode.
func checkElems(section string, n int) {
	if n > MaxElems {
		panic(fmt.Sprintf("member: invariant MaxElems violated: %d %s > %d", n, section, MaxElems))
	}
}

// AppendTo appends the record's canonical encoding to dst. Section
// counts beyond MaxElems panic (invariant MaxElems) instead of
// truncating on the wire.
func (r Record) AppendTo(dst []byte) []byte {
	checkElems("members", len(r.Members))
	checkElems("added links", len(r.AddLinks))
	checkElems("dropped links", len(r.DropLinks))
	dst = append(dst, recordMagic...)
	dst = binary.LittleEndian.AppendUint64(dst, r.Num)
	dst = append(dst, r.Prev[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.ActivateAt))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Members)))
	for _, m := range r.Members {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(m))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.AddLinks)))
	for _, l := range r.AddLinks {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(l.A))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(l.B))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(l.Bandwidth))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(l.Prop))
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.DropLinks)))
	for _, d := range r.DropLinks {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d[0]))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d[1]))
	}
	return dst
}

// Encode serializes the record canonically.
func (r Record) Encode() []byte { return r.AppendTo(make([]byte, 0, r.EncodedSize())) }

// ID returns the record's content hash (first 16 bytes of SHA-256 over
// the canonical encoding). Prepare and commit forms of the same epoch
// have different IDs (ActivateAt differs); chaining uses the committed
// form's ID.
func (r Record) ID() [16]byte {
	sum := sha256.Sum256(r.Encode())
	var id [16]byte
	copy(id[:], sum[:16])
	return id
}

// DecodeRecord parses a canonical record encoding. It is strict: length
// must match exactly, members must be sorted and unique, link counts
// must be internally consistent — malformed (possibly adversarial)
// input is rejected before any signature check consumes CPU.
func DecodeRecord(b []byte) (Record, error) {
	var r Record
	if len(b) < len(recordMagic)+8+16+8+2 {
		return r, errTruncated
	}
	if string(b[:len(recordMagic)]) != recordMagic {
		return r, fmt.Errorf("member: bad record magic")
	}
	off := len(recordMagic)
	r.Num = binary.LittleEndian.Uint64(b[off:])
	off += 8
	copy(r.Prev[:], b[off:off+16])
	off += 16
	r.ActivateAt = sim.Time(binary.LittleEndian.Uint64(b[off:]))
	off += 8
	nm := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+4*nm+2 {
		return r, errTruncated
	}
	if nm == 0 {
		return r, fmt.Errorf("member: empty membership")
	}
	r.Members = make([]network.NodeID, nm)
	for i := 0; i < nm; i++ {
		r.Members[i] = network.NodeID(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if r.Members[i] < 0 {
			return r, fmt.Errorf("member: member id overflow")
		}
		if i > 0 && r.Members[i] <= r.Members[i-1] {
			return r, fmt.Errorf("member: members not sorted-unique")
		}
	}
	na := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) < off+24*na+2 {
		return r, errTruncated
	}
	if na > 0 {
		r.AddLinks = make([]network.Link, na)
	}
	for i := 0; i < na; i++ {
		l := network.Link{
			A:         network.NodeID(binary.LittleEndian.Uint32(b[off:])),
			B:         network.NodeID(binary.LittleEndian.Uint32(b[off+4:])),
			Bandwidth: int64(binary.LittleEndian.Uint64(b[off+8:])),
			Prop:      sim.Time(binary.LittleEndian.Uint64(b[off+16:])),
		}
		off += 24
		if l.A == l.B || l.A < 0 || l.B < 0 || l.Bandwidth <= 0 || l.Prop < 0 {
			return r, fmt.Errorf("member: malformed added link %d-%d", l.A, l.B)
		}
		r.AddLinks[i] = l
	}
	nd := int(binary.LittleEndian.Uint16(b[off:]))
	off += 2
	if len(b) != off+8*nd {
		return r, fmt.Errorf("member: bad record framing (%d trailing)", len(b)-off-8*nd)
	}
	if nd > 0 {
		r.DropLinks = make([][2]network.NodeID, nd)
	}
	for i := 0; i < nd; i++ {
		d := [2]network.NodeID{
			network.NodeID(binary.LittleEndian.Uint32(b[off:])),
			network.NodeID(binary.LittleEndian.Uint32(b[off+4:])),
		}
		off += 8
		if d[0] == d[1] || d[0] < 0 || d[1] < 0 {
			return r, fmt.Errorf("member: malformed dropped link %d-%d", d[0], d[1])
		}
		r.DropLinks[i] = d
	}
	return r, nil
}

// Seal returns the operator-signed wire form of the record: the
// canonical encoding followed by the operator's ed25519 signature over
// it. Only the configuration authority can produce it; every node can
// check it.
func Seal(reg *sig.Registry, r Record) []byte { return AppendSeal(nil, reg, r) }

// AppendSeal appends Seal's wire form to dst, growing dst at most once:
// a dst with r.EncodedSize()+sig.SignatureSize bytes of room costs no
// allocation.
func AppendSeal(dst []byte, reg *sig.Registry, r Record) []byte {
	at := len(dst)
	dst = slices.Grow(dst, r.EncodedSize()+sig.SignatureSize)
	return reg.OperatorSignAppended(r.AppendTo(dst), at)
}

// Open verifies an operator-sealed record and decodes it. Bit-flipped
// payloads fail the signature, truncated ones fail framing — both
// before any state is touched.
func Open(reg *sig.Registry, b []byte) (Record, error) {
	if len(b) < sig.SignatureSize {
		return Record{}, errTruncated
	}
	body, s := b[:len(b)-sig.SignatureSize], b[len(b)-sig.SignatureSize:]
	if !reg.OperatorVerify(body, s) {
		return Record{}, fmt.Errorf("member: bad operator signature")
	}
	return DecodeRecord(body)
}

// WithActivation returns a copy of the record carrying the commit-phase
// activation instant.
func (r Record) WithActivation(at sim.Time) Record {
	c := r
	c.ActivateAt = at
	// Deep-copy the slices so prepare and commit forms never alias.
	c.Members = append([]network.NodeID(nil), r.Members...)
	c.AddLinks = append([]network.Link(nil), r.AddLinks...)
	c.DropLinks = append([][2]network.NodeID(nil), r.DropLinks...)
	return c
}
