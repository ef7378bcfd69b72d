// Package wire defines the length-prefixed frame codec the real-socket
// transport (network.TCPBus) speaks between node processes. It is the
// only layer that touches raw connections, so it is also where the
// encode-side hardening lives: every length field is range-checked
// before it is written, and every length field read off the wire is
// range-checked before a single byte is allocated — a frame that cannot
// be decoded exactly as it was encoded is never emitted.
//
// Wire layout (all integers little-endian):
//
//	frame   := len u32 | type u8 | body
//	            len counts everything after the len field (type + body)
//	            and must be in [1, MaxFrame].
//	hello   := magic "btrw" | version u8 | cluster u64 | node u32
//	            First frame on every connection, sent by the dialer; the
//	            acceptor learns the peer's identity from it and rejects
//	            cross-cluster or cross-version connections.
//	msg     := class u8 | src u32 | dst u32 | from u32 | to u32 |
//	           hops u16 | payload
//	            One transport message hop. The payload is opaque runtime
//	            framing (data / evidence / membership), exactly the bytes
//	            the in-process transports carry.
//	heartbeat := empty body
//	            Keeps the connection's liveness clock fresh when the link
//	            is otherwise idle.
//	batch   := count u16 | entry*count
//	entry   := class u8 | src u32 | dst u32 | from u32 | to u32 |
//	           hops u16 | plen u32 | payload
//	            A coalesced write: the sender drained its whole per-class
//	            queue into one frame, one syscall. Entries are msgs in
//	            send order; every entry must also fit a single msg frame,
//	            so coalescing can never smuggle an oversize message.
//
// The handshake and reconnect state machine built on these frames is
// documented on network.TCPBus (and in the README's wire-protocol
// section).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame types.
const (
	TypeHello     = byte('H')
	TypeMsg       = byte('M')
	TypeHeartbeat = byte('B')
	TypeBatch     = byte('G') // gathered msgs: one frame, many hops
)

// Magic and Version identify the protocol. A peer speaking a different
// version (or random TCP noise) is rejected at the handshake.
const (
	Magic   = "btrw"
	Version = 1
)

// MaxFrame is the ceiling on the encoded size of one frame (type byte +
// body). It bounds the allocation a length prefix can demand from a
// receiver and the frame an encoder may emit; both sides enforce it.
const MaxFrame = 1 << 20

// MaxMsgPayload is the largest msg payload MaxFrame admits. Exported
// so senders that defer encoding (the coalescing write path) can apply
// the encode-side guard before queueing.
const MaxMsgPayload = MaxFrame - 1 - msgHeaderSize

// msgHeaderSize is the fixed part of a msg body: class u8 + four node
// IDs (u32 each) + hops u16.
const msgHeaderSize = 1 + 4*4 + 2

// Errors the codec can return. ErrOversize fires on the encode side —
// the caller handed the codec something that cannot be framed without
// truncating a length field; refusing loudly here is the hardening this
// package exists for.
var (
	ErrOversize  = errors.New("wire: frame exceeds MaxFrame")
	ErrTruncated = errors.New("wire: truncated frame")
)

// Hello is the handshake frame: the dialer announces who it is and which
// cluster it belongs to before any traffic flows.
type Hello struct {
	Cluster uint64 // deployment tag (derived from the seed); must match
	Node    uint32 // the sender's node slot
}

// Msg is one transport message hop.
type Msg struct {
	Class   uint8
	Src     uint32
	Dst     uint32
	From    uint32
	To      uint32
	Hops    uint16
	Payload []byte
}

// AppendHello appends an encoded hello frame (including the length
// prefix) to dst.
func AppendHello(dst []byte, h Hello) []byte {
	body := len(Magic) + 1 + 8 + 4
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+body))
	dst = append(dst, TypeHello)
	dst = append(dst, Magic...)
	dst = append(dst, Version)
	dst = binary.LittleEndian.AppendUint64(dst, h.Cluster)
	return binary.LittleEndian.AppendUint32(dst, h.Node)
}

// AppendHeartbeat appends an encoded heartbeat frame to dst.
func AppendHeartbeat(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, 1)
	return append(dst, TypeHeartbeat)
}

// AppendMsg appends an encoded msg frame to dst. It returns ErrOversize
// (with dst unchanged) when the payload cannot fit a frame — the
// encode-side guard: a payload one byte too large is an error here, not
// a corrupt frame at the receiver.
func AppendMsg(dst []byte, m Msg) ([]byte, error) {
	if len(m.Payload) > MaxMsgPayload {
		return dst, fmt.Errorf("%w (payload %d > %d)", ErrOversize, len(m.Payload), MaxMsgPayload)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+msgHeaderSize+len(m.Payload)))
	dst = append(dst, TypeMsg)
	dst = append(dst, m.Class)
	dst = binary.LittleEndian.AppendUint32(dst, m.Src)
	dst = binary.LittleEndian.AppendUint32(dst, m.Dst)
	dst = binary.LittleEndian.AppendUint32(dst, m.From)
	dst = binary.LittleEndian.AppendUint32(dst, m.To)
	dst = binary.LittleEndian.AppendUint16(dst, m.Hops)
	return append(dst, m.Payload...), nil
}

// batchEntryHeaderSize is the fixed part of one batch entry: the msg
// header plus a u32 payload length (needed because entries are
// concatenated inside one frame body).
const batchEntryHeaderSize = msgHeaderSize + 4

// maxBatchCount is the ceiling on entries per batch frame (count is u16).
const maxBatchCount = 1<<16 - 1

// AppendBatch appends ONE encoded batch frame holding a maximal prefix
// of ms to dst and returns the extended slice plus how many messages it
// consumed; callers loop until the queue is drained. The encode-side
// guards mirror AppendMsg: a message whose payload could not ride a
// single msg frame is ErrOversize (with dst unchanged, zero consumed) —
// it would be just as unframeable inside a batch — and the frame is
// closed before it would exceed MaxFrame or the u16 entry count.
// An empty ms consumes nothing and appends nothing.
func AppendBatch(dst []byte, ms []Msg) ([]byte, int, error) {
	if len(ms) == 0 {
		return dst, 0, nil
	}
	// Plan the prefix first so the length field is written once, exactly.
	size := 1 + 2 // type byte + count
	n := 0
	for n < len(ms) && n < maxBatchCount {
		if len(ms[n].Payload) > MaxMsgPayload {
			if n == 0 {
				return dst, 0, fmt.Errorf("%w (payload %d > %d)", ErrOversize, len(ms[n].Payload), MaxMsgPayload)
			}
			break // emit what fits; the caller will hit the error next call
		}
		entry := batchEntryHeaderSize + len(ms[n].Payload)
		if size+entry > MaxFrame {
			break
		}
		size += entry
		n++
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(size))
	dst = append(dst, TypeBatch)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(n))
	for i := 0; i < n; i++ {
		m := &ms[i]
		dst = append(dst, m.Class)
		dst = binary.LittleEndian.AppendUint32(dst, m.Src)
		dst = binary.LittleEndian.AppendUint32(dst, m.Dst)
		dst = binary.LittleEndian.AppendUint32(dst, m.From)
		dst = binary.LittleEndian.AppendUint32(dst, m.To)
		dst = binary.LittleEndian.AppendUint16(dst, m.Hops)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Payload)))
		dst = append(dst, m.Payload...)
	}
	return dst, n, nil
}

// ParseBatch decodes a batch frame body. Strict: a zero count, a
// truncated entry, a per-entry payload length exceeding what a single
// msg frame admits, or trailing bytes after the last entry are all
// errors — the decode-side twin of AppendBatch's guards, applied before
// any per-entry allocation.
func ParseBatch(body []byte) ([]Msg, error) {
	if len(body) < 2 {
		return nil, ErrTruncated
	}
	count := int(binary.LittleEndian.Uint16(body))
	if count == 0 {
		return nil, fmt.Errorf("wire: empty batch frame")
	}
	off := 2
	ms := make([]Msg, 0, count)
	for i := 0; i < count; i++ {
		if len(body)-off < batchEntryHeaderSize {
			return nil, ErrTruncated
		}
		m := Msg{
			Class: body[off],
			Src:   binary.LittleEndian.Uint32(body[off+1:]),
			Dst:   binary.LittleEndian.Uint32(body[off+5:]),
			From:  binary.LittleEndian.Uint32(body[off+9:]),
			To:    binary.LittleEndian.Uint32(body[off+13:]),
			Hops:  binary.LittleEndian.Uint16(body[off+17:]),
		}
		plen := int(binary.LittleEndian.Uint32(body[off+19:]))
		off += batchEntryHeaderSize
		if plen > MaxMsgPayload || plen > len(body)-off {
			return nil, fmt.Errorf("wire: bad batch entry payload length %d", plen)
		}
		m.Payload = append([]byte(nil), body[off:off+plen]...)
		off += plen
		ms = append(ms, m)
	}
	if off != len(body) {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch", len(body)-off)
	}
	return ms, nil
}

// ReadFrame reads one length-prefixed frame from r, returning its type
// byte and a body the caller owns, exactly as long as the frame. It is
// ReadFrameInto with no buffer to reuse.
func ReadFrame(r *bufio.Reader) (typ byte, body []byte, err error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto reads one length-prefixed frame from r into *buf,
// growing it only when the frame exceeds its capacity, and returns the
// type byte and the body, which aliases *buf and is valid until the
// next read into it. A nil buf gets a fresh exact-size frame. A length
// prefix outside [1, MaxFrame] is rejected before any allocation; a
// stream that ends at a frame boundary is io.EOF, one that ends inside
// a frame io.ErrUnexpectedEOF (in the length) or a short-frame error
// wrapping it (in the body).
func ReadFrameInto(r *bufio.Reader, buf *[]byte) (typ byte, body []byte, err error) {
	// Peek leaves the prefix in r's buffer, so nothing is allocated for it.
	prefix, err := r.Peek(4)
	if err != nil {
		if len(prefix) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(prefix)
	_, _ = r.Discard(4) // cannot fail: the 4 bytes are buffered
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	var frame []byte
	switch {
	case buf == nil:
		frame = make([]byte, n)
	case cap(*buf) >= int(n):
		frame = (*buf)[:n]
	default:
		frame = make([]byte, n)
		*buf = frame
	}
	if _, err := io.ReadFull(r, frame); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame: %w", err)
	}
	return frame[0], frame[1:], nil
}

// ParseHello decodes a hello frame body, rejecting wrong magic, version,
// or framing.
func ParseHello(body []byte) (Hello, error) {
	want := len(Magic) + 1 + 8 + 4
	if len(body) != want {
		return Hello{}, fmt.Errorf("wire: bad hello length %d", len(body))
	}
	if string(body[:len(Magic)]) != Magic {
		return Hello{}, fmt.Errorf("wire: bad hello magic")
	}
	if body[len(Magic)] != Version {
		return Hello{}, fmt.Errorf("wire: protocol version %d (want %d)", body[len(Magic)], Version)
	}
	off := len(Magic) + 1
	return Hello{
		Cluster: binary.LittleEndian.Uint64(body[off:]),
		Node:    binary.LittleEndian.Uint32(body[off+8:]),
	}, nil
}

// ParseMsg decodes a msg frame body. Strict: a body shorter than the
// fixed header is ErrTruncated; everything after the header is the
// payload (its length was already bounded by the frame length check).
func ParseMsg(body []byte) (Msg, error) {
	if len(body) < msgHeaderSize {
		return Msg{}, ErrTruncated
	}
	m := Msg{
		Class: body[0],
		Src:   binary.LittleEndian.Uint32(body[1:]),
		Dst:   binary.LittleEndian.Uint32(body[5:]),
		From:  binary.LittleEndian.Uint32(body[9:]),
		To:    binary.LittleEndian.Uint32(body[13:]),
		Hops:  binary.LittleEndian.Uint16(body[17:]),
	}
	m.Payload = append([]byte(nil), body[msgHeaderSize:]...)
	return m, nil
}
