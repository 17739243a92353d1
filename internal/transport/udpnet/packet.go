package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Datagram wire format (little-endian). One datagram is either a data
// packet — a batch of frame chunks coalesced onto one reliable per-link
// sequence number, whose header also carries the cumulative ack of the
// reverse link — or a stand-alone ack, sent only when no data packet will
// carry the ack in time, which adds a selective-ack bitmap:
//
//	datagram header (20 bytes):
//	  uint8  kind     — kindData or kindAck
//	  uint8  flags    — flagAck: ack and ackDelay are valid (always set on
//	                    an ack datagram); every other bit is zero
//	  uint16 count    — data: number of chunks; ack: zero
//	  uint32 from     — sender rank
//	  uint32 seq      — data: per-link packet sequence number; ack: zero
//	  uint32 ack      — cumulative ack of the link from the receiver of
//	                    this datagram to its sender (next expected seq;
//	                    all lower sequence numbers were received)
//	  uint32 ackDelay — microseconds between the arrival of the newest
//	                    packet ack covers and this datagram leaving,
//	                    saturating; the sender subtracts it from its RTT
//	                    sample so deliberate ack hold time is not
//	                    mistaken for wire latency
//
//	data chunk (20-byte header + fragment bytes):
//	  uint32 tag      — transport tag of the frame
//	  uint32 frameID  — per-link frame counter, assigned in send order
//	  uint32 frameLen — total frame byte length
//	  uint32 off      — fragment offset within the frame
//	  uint32 fragLen  — fragment byte length (0 only for empty frames)
//
//	ack payload (8 bytes):
//	  uint64 bitmap   — bit i set means seq ack+1+i was received
//	                    (selective acks beyond the cumulative prefix)
//
// Every parser below is total: arbitrary input bytes produce an error,
// never a panic or an over-read. The receive path depends on that (a
// corrupted or torn datagram must be droppable), and the fuzz target in
// fuzz_test.go enforces it. TestWireABI pins the layout byte for byte.
const (
	dgramHdrLen = 20
	chunkHdrLen = 20
	ackBodyLen  = 8

	// maxDatagram is the packet buffer size: every datagram, headers
	// included, fits in one buffer. Well under the 64 KiB UDP limit, large
	// enough that header overhead on bulk frames stays below 1%.
	maxDatagram = 8192

	// maxFrameLen bounds a frame declared by a chunk header, mirroring
	// tcpnet's length-prefix sanity bound.
	maxFrameLen = 1 << 30
)

const (
	kindData = 1
	kindAck  = 2

	// flagAck marks the header's ack and ackDelay fields as valid.
	flagAck = 1
)

// ErrMalformed reports a datagram that does not parse under the wire
// format. Receivers drop such packets; the reliability layer recovers.
var ErrMalformed = errors.New("udpnet: malformed datagram")

// dgramHeader is the decoded fixed header of one datagram.
type dgramHeader struct {
	kind  byte
	count int
	from  int
	seq   uint32

	hasAck   bool   // ack and ackDelay are valid
	ack      uint32 // cumulative ack of the reverse link
	ackDelay uint32 // microseconds the ack was held, saturating
}

// putDgramHeader writes the header into b[0:dgramHdrLen].
func putDgramHeader(b []byte, h dgramHeader) {
	b[0] = h.kind
	binary.LittleEndian.PutUint16(b[2:], uint16(h.count))
	binary.LittleEndian.PutUint32(b[4:], uint32(h.from))
	stampSeqAck(b, h.seq, h.hasAck, h.ack, h.ackDelay)
}

// stampSeqAck writes the header fields a data packet only learns when it
// leaves: its sequence number on first transmission, and the reverse
// link's ack on every transmission.
func stampSeqAck(b []byte, seq uint32, hasAck bool, ack, ackDelay uint32) {
	b[1] = 0
	if hasAck {
		b[1] = flagAck
	}
	binary.LittleEndian.PutUint32(b[8:], seq)
	binary.LittleEndian.PutUint32(b[12:], ack)
	binary.LittleEndian.PutUint32(b[16:], ackDelay)
}

// ackDelayMicros converts a hold time to the wire's saturating
// microsecond field.
func ackDelayMicros(ns int64) uint32 {
	switch us := ns / 1000; {
	case us <= 0:
		return 0
	case us >= math.MaxUint32:
		return math.MaxUint32
	default:
		return uint32(us)
	}
}

// parseDgram decodes the datagram header and returns it with the body
// bytes. size is the world size, bounding the from field.
func parseDgram(b []byte, size int) (dgramHeader, []byte, error) {
	if len(b) < dgramHdrLen {
		return dgramHeader{}, nil, fmt.Errorf("%w: %d header bytes", ErrMalformed, len(b))
	}
	h := dgramHeader{
		kind:   b[0],
		count:  int(binary.LittleEndian.Uint16(b[2:])),
		from:   int(binary.LittleEndian.Uint32(b[4:])),
		seq:    binary.LittleEndian.Uint32(b[8:]),
		hasAck: b[1]&flagAck != 0,
	}
	if h.kind != kindData && h.kind != kindAck {
		return dgramHeader{}, nil, fmt.Errorf("%w: kind %d", ErrMalformed, h.kind)
	}
	if b[1]&^flagAck != 0 {
		return dgramHeader{}, nil, fmt.Errorf("%w: unknown flag bits %#x", ErrMalformed, b[1])
	}
	if h.kind == kindAck && !h.hasAck {
		return dgramHeader{}, nil, fmt.Errorf("%w: ack datagram without an ack", ErrMalformed)
	}
	if h.hasAck {
		h.ack = binary.LittleEndian.Uint32(b[12:])
		h.ackDelay = binary.LittleEndian.Uint32(b[16:])
	}
	if h.from < 0 || h.from >= size {
		return dgramHeader{}, nil, fmt.Errorf("%w: rank %d out of [0,%d)", ErrMalformed, h.from, size)
	}
	return h, b[dgramHdrLen:], nil
}

// chunk is one decoded frame fragment. frag aliases the datagram buffer.
type chunk struct {
	tag      int
	frameID  uint32
	frameLen uint32
	off      uint32
	frag     []byte
}

// appendChunk appends one encoded chunk to the packet under construction
// and returns the extended slice. The caller guarantees capacity
// (chunkSpace) — packets are built inside fixed-size ring buffers.
func appendChunk(b []byte, tag int, frameID, frameLen, off uint32, frag []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(tag))
	b = binary.LittleEndian.AppendUint32(b, frameID)
	b = binary.LittleEndian.AppendUint32(b, frameLen)
	b = binary.LittleEndian.AppendUint32(b, off)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(frag)))
	return append(b, frag...)
}

// nextChunk decodes the chunk at the front of body, returning it and the
// remaining bytes. The fragment is validated against its frame geometry:
// declared lengths must be in range and the fragment must lie inside the
// frame, so a consumer can copy frag at off without further checks.
func nextChunk(body []byte) (chunk, []byte, error) {
	if len(body) < chunkHdrLen {
		return chunk{}, nil, fmt.Errorf("%w: %d chunk header bytes", ErrMalformed, len(body))
	}
	c := chunk{
		tag:      int(binary.LittleEndian.Uint32(body[0:])),
		frameID:  binary.LittleEndian.Uint32(body[4:]),
		frameLen: binary.LittleEndian.Uint32(body[8:]),
		off:      binary.LittleEndian.Uint32(body[12:]),
	}
	fragLen := binary.LittleEndian.Uint32(body[16:])
	body = body[chunkHdrLen:]
	if c.frameLen > maxFrameLen {
		return chunk{}, nil, fmt.Errorf("%w: frame length %d", ErrMalformed, c.frameLen)
	}
	if uint64(c.off)+uint64(fragLen) > uint64(c.frameLen) {
		return chunk{}, nil, fmt.Errorf("%w: fragment [%d,%d) outside frame of %d bytes",
			ErrMalformed, c.off, uint64(c.off)+uint64(fragLen), c.frameLen)
	}
	if uint64(fragLen) > uint64(len(body)) {
		return chunk{}, nil, fmt.Errorf("%w: fragment of %d bytes, %d remain", ErrMalformed, fragLen, len(body))
	}
	c.frag = body[:fragLen:fragLen]
	return c, body[fragLen:], nil
}

// buildAck encodes a complete ack datagram into b (which must have
// capacity dgramHdrLen+ackBodyLen) and returns the filled slice.
func buildAck(b []byte, from int, cumAck, ackDelay uint32, bitmap uint64) []byte {
	b = b[:dgramHdrLen+ackBodyLen]
	putDgramHeader(b, dgramHeader{kind: kindAck, from: from, hasAck: true, ack: cumAck, ackDelay: ackDelay})
	binary.LittleEndian.PutUint64(b[dgramHdrLen:], bitmap)
	return b
}

// parseAck decodes an ack body. The cumulative ack itself travels in the
// datagram header's ack field.
func parseAck(body []byte) (bitmap uint64, err error) {
	if len(body) != ackBodyLen {
		return 0, fmt.Errorf("%w: ack body of %d bytes", ErrMalformed, len(body))
	}
	return binary.LittleEndian.Uint64(body), nil
}
