// Q frames are the client-facing half of the wire protocol: the
// request/response family the replicated register service
// (internal/client) speaks between quorum clients and node processes.
// They ride the same length-prefixed framing as the node-to-node types
// and inherit the same hardening discipline — every length field is
// range-checked on the encode side before it is written and on the
// decode side before a single byte is allocated.
//
// Wire layout (all integers little-endian):
//
//	qreq    := op u8 | opid u64 | epoch u64 | ts u64 | writer u32 |
//	           klen u16 | key | vlen u32 | value
//	            One register operation. op is QOpGet or QOpSet; epoch is
//	            the client's view of the active membership epoch (the
//	            server rejects mismatches with QStatusStaleView so the
//	            client can adopt the newer view and resubmit the same
//	            opid). ts/writer/value carry the tagged write for QOpSet
//	            and are zero/empty for QOpGet.
//	qresp   := status u8 | opid u64 | epoch u64 | ts u64 | writer u32 |
//	           vlen u32 | value | mcount u16 | member u32 * mcount
//	            The server's answer. opid echoes the request; epoch is
//	            the server's current epoch (on QStatusStaleView the
//	            member list names the current epoch's active slots so a
//	            stale client can rebuild its view without a directory).
//
// The parsers decode in place: a parsed Key or Value aliases the frame
// body it came from, capacity-capped so an append to one cannot run
// into the next, and is valid only as long as that body is. A reader
// that reuses its frame buffer (ReadFrameInto) must copy whatever it
// keeps past the next read. Only a qresp's member list is decoded into
// a slice of its own.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Client-facing frame types: 'Q' carries a register request, 'q' the
// response — one family, one case bit apart.
const (
	TypeQRequest  = byte('Q')
	TypeQResponse = byte('q')
)

// Register operations a qreq can carry.
const (
	QOpGet = uint8(1) // read the register's current (ts, writer, value)
	QOpSet = uint8(2) // store a tagged write (last-writer-wins on ts, writer)
)

// Response statuses.
const (
	QStatusOK        = uint8(0)
	QStatusStaleView = uint8(1) // request epoch ≠ server epoch; view attached
	QStatusErr       = uint8(2) // server-side refusal (bad op, shutting down)
)

// Caps on the variable-length qreq/qresp fields. They are deliberately
// far below MaxFrame: a register key is a name, not a blob, and the
// member list is bounded by the slot universe, so anything larger is a
// corrupt or hostile frame and is refused before allocation.
const (
	MaxQKey     = 255           // key bytes per request
	MaxQValue   = 1 << 16       // value bytes per register
	MaxQMembers = (1 << 16) / 4 // member IDs per response view
)

// qreqHeaderSize is the fixed part of a qreq body: op u8 + opid u64 +
// epoch u64 + ts u64 + writer u32 + klen u16 + vlen u32.
const qreqHeaderSize = 1 + 8 + 8 + 8 + 4 + 2 + 4

// qrespHeaderSize is the fixed part of a qresp body: status u8 + opid
// u64 + epoch u64 + ts u64 + writer u32 + vlen u32 + mcount u16.
const qrespHeaderSize = 1 + 8 + 8 + 8 + 4 + 4 + 2

// QRequest is one register operation as it crosses the wire.
type QRequest struct {
	Op     uint8
	OpID   uint64
	Epoch  uint64
	TS     uint64
	Writer uint32
	Key    []byte
	Value  []byte
}

// QResponse is the server's answer to a QRequest.
type QResponse struct {
	Status  uint8
	OpID    uint64
	Epoch   uint64
	TS      uint64
	Writer  uint32
	Value   []byte
	Members []uint32
}

// AppendQRequest appends an encoded qreq frame (including the length
// prefix) to dst. It returns ErrOversize with dst unchanged when the
// key or value exceeds its cap — the encode-side guard: an unframeable
// request is an error here, never a corrupt frame at the server.
func AppendQRequest(dst []byte, q QRequest) ([]byte, error) {
	if len(q.Key) > MaxQKey {
		return dst, fmt.Errorf("%w (key %d > %d)", ErrOversize, len(q.Key), MaxQKey)
	}
	if len(q.Value) > MaxQValue {
		return dst, fmt.Errorf("%w (value %d > %d)", ErrOversize, len(q.Value), MaxQValue)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+qreqHeaderSize+len(q.Key)+len(q.Value)))
	dst = append(dst, TypeQRequest)
	dst = append(dst, q.Op)
	dst = binary.LittleEndian.AppendUint64(dst, q.OpID)
	dst = binary.LittleEndian.AppendUint64(dst, q.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, q.TS)
	dst = binary.LittleEndian.AppendUint32(dst, q.Writer)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(q.Key)))
	dst = append(dst, q.Key...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.Value)))
	return append(dst, q.Value...), nil
}

// ParseQRequest decodes a qreq frame body in place: Key and Value alias
// body. Strict: a body shorter than the fixed header, a klen or vlen
// exceeding its cap or the remaining body, or trailing bytes after the
// value are all errors.
func ParseQRequest(body []byte) (QRequest, error) {
	if len(body) < qreqHeaderSize {
		return QRequest{}, ErrTruncated
	}
	q := QRequest{
		Op:     body[0],
		OpID:   binary.LittleEndian.Uint64(body[1:]),
		Epoch:  binary.LittleEndian.Uint64(body[9:]),
		TS:     binary.LittleEndian.Uint64(body[17:]),
		Writer: binary.LittleEndian.Uint32(body[25:]),
	}
	klen := int(binary.LittleEndian.Uint16(body[29:]))
	off := 31
	if klen > MaxQKey || klen > len(body)-off {
		return QRequest{}, fmt.Errorf("wire: bad qreq key length %d", klen)
	}
	q.Key = field(body, off, klen)
	off += klen
	if len(body)-off < 4 {
		return QRequest{}, ErrTruncated
	}
	vlen := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if vlen > MaxQValue || vlen > len(body)-off {
		return QRequest{}, fmt.Errorf("wire: bad qreq value length %d", vlen)
	}
	q.Value = field(body, off, vlen)
	off += vlen
	if off != len(body) {
		return QRequest{}, fmt.Errorf("wire: %d trailing bytes after qreq", len(body)-off)
	}
	return q, nil
}

// AppendQResponse appends an encoded qresp frame (including the length
// prefix) to dst. ErrOversize with dst unchanged when the value or the
// member list exceeds its cap.
func AppendQResponse(dst []byte, q QResponse) ([]byte, error) {
	if len(q.Value) > MaxQValue {
		return dst, fmt.Errorf("%w (value %d > %d)", ErrOversize, len(q.Value), MaxQValue)
	}
	if len(q.Members) > MaxQMembers {
		return dst, fmt.Errorf("%w (members %d > %d)", ErrOversize, len(q.Members), MaxQMembers)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+qrespHeaderSize+len(q.Value)+4*len(q.Members)))
	dst = append(dst, TypeQResponse)
	dst = append(dst, q.Status)
	dst = binary.LittleEndian.AppendUint64(dst, q.OpID)
	dst = binary.LittleEndian.AppendUint64(dst, q.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, q.TS)
	dst = binary.LittleEndian.AppendUint32(dst, q.Writer)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(q.Value)))
	dst = append(dst, q.Value...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(q.Members)))
	for _, m := range q.Members {
		dst = binary.LittleEndian.AppendUint32(dst, m)
	}
	return dst, nil
}

// ParseQResponse decodes a qresp frame body with the same strictness as
// ParseQRequest: every wire-supplied length is checked against its cap
// and the remaining body, and trailing bytes after the member list are
// an error. Value aliases body; Members, when the count is not zero, is
// a slice of its own, allocated only after the count is checked.
func ParseQResponse(body []byte) (QResponse, error) {
	if len(body) < qrespHeaderSize {
		return QResponse{}, ErrTruncated
	}
	q := QResponse{
		Status: body[0],
		OpID:   binary.LittleEndian.Uint64(body[1:]),
		Epoch:  binary.LittleEndian.Uint64(body[9:]),
		TS:     binary.LittleEndian.Uint64(body[17:]),
		Writer: binary.LittleEndian.Uint32(body[25:]),
	}
	vlen := int(binary.LittleEndian.Uint32(body[29:]))
	off := 33
	if vlen > MaxQValue || vlen > len(body)-off {
		return QResponse{}, fmt.Errorf("wire: bad qresp value length %d", vlen)
	}
	q.Value = field(body, off, vlen)
	off += vlen
	if len(body)-off < 2 {
		return QResponse{}, ErrTruncated
	}
	mcount := int(binary.LittleEndian.Uint16(body[off:]))
	off += 2
	if mcount > MaxQMembers || 4*mcount > len(body)-off {
		return QResponse{}, fmt.Errorf("wire: bad qresp member count %d", mcount)
	}
	if mcount > 0 {
		q.Members = make([]uint32, mcount)
		for i := range q.Members {
			q.Members[i] = binary.LittleEndian.Uint32(body[off:])
			off += 4
		}
	}
	if off != len(body) {
		return QResponse{}, fmt.Errorf("wire: %d trailing bytes after qresp", len(body)-off)
	}
	return q, nil
}

// field returns body[off:off+n] capacity-capped, or nil when n is 0 (an
// empty field decodes as absent, as an encoder's nil slice does).
func field(body []byte, off, n int) []byte {
	if n == 0 {
		return nil
	}
	return body[off : off+n : off+n]
}
