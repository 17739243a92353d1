package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Wire format (little-endian):
//
//	message frame:
//	  uint32 from
//	  uint32 to
//	  uint32 nsubs
//	  uint32 reserved (0)
//	  nsubs * submessage
//	submessage:
//	  uint32 src
//	  uint32 dst
//	  uint32 len(data)
//	  uint32 reserved (0)
//	  data bytes
//
// Both headers are 16 bytes, so in a frame whose payloads are all
// word-sized (the compiled replay's float64 payloads) every payload starts
// on an 8-byte boundary of the frame buffer and Float64View accepts it.
// Reserved words are written as 0; a decoder rejects any other value.
//
// The format is self-delimiting given the frame length, which transports
// carry out-of-band (channel transport: slice length; TCP transport: a
// uint32 length prefix).
const (
	headerLen    = 16 // either header: three uint32 fields and a reserved word
	MsgHeaderLen = headerLen
	SubHeaderLen = headerLen
)

// ErrTruncated reports a frame shorter than its declared contents.
var ErrTruncated = errors.New("msg: truncated frame")

// ErrReserved reports a frame or submessage header whose reserved word is
// not zero.
var ErrReserved = errors.New("msg: nonzero reserved header word")

// putHeader, appendHeader and readHeader serve both headers, which share
// one shape.
func putHeader(b []byte, f0, f1, f2 int) {
	binary.LittleEndian.PutUint64(b[0:], uint64(uint32(f0))|uint64(uint32(f1))<<32)
	binary.LittleEndian.PutUint64(b[8:], uint64(uint32(f2)))
}

func appendHeader(b []byte, f0, f1, f2 int) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(uint32(f0))|uint64(uint32(f1))<<32)
	return binary.LittleEndian.AppendUint64(b, uint64(uint32(f2)))
}

func readHeader(b []byte) (f0, f1, f2 int, err error) {
	if len(b) < headerLen {
		return 0, 0, 0, ErrTruncated
	}
	if binary.LittleEndian.Uint32(b[12:]) != 0 {
		return 0, 0, 0, ErrReserved
	}
	return int(binary.LittleEndian.Uint32(b[0:])), int(binary.LittleEndian.Uint32(b[4:])),
		int(binary.LittleEndian.Uint32(b[8:])), nil
}

// PutFrameHeader writes the header of a frame from -> to carrying nsubs
// submessages into b[:MsgHeaderLen], reserved word included, for code that
// builds frames in place instead of through Encode.
func PutFrameHeader(b []byte, from, to, nsubs int) { putHeader(b, from, to, nsubs) }

// PutSubHeader writes the header of a submessage src -> dst with n payload
// bytes into b[:SubHeaderLen], reserved word included; the payload follows
// at b[SubHeaderLen:].
func PutSubHeader(b []byte, src, dst, n int) { putHeader(b, src, dst, n) }

// ReadFrameHeader parses the frame header at the start of b, rejecting a
// short buffer (ErrTruncated) or a nonzero reserved word (ErrReserved). It
// does not look past the header.
func ReadFrameHeader(b []byte) (from, to, nsubs int, err error) { return readHeader(b) }

// EncodedSize returns the exact number of bytes Encode will append for m,
// so hot paths can obtain a frame buffer of the right capacity up front
// instead of growing one append at a time.
func EncodedSize(m *Message) int {
	n := MsgHeaderLen + len(m.Subs)*SubHeaderLen
	for _, s := range m.Subs {
		n += len(s.Data)
	}
	return n
}

// Encode appends the wire encoding of m to dst and returns the extended
// slice.
func Encode(dst []byte, m *Message) []byte {
	dst = appendHeader(dst, m.From, m.To, len(m.Subs))
	for _, s := range m.Subs {
		dst = appendHeader(dst, s.Src, s.Dst, len(s.Data))
		dst = append(dst, s.Data...)
	}
	return dst
}

// Decode parses a frame produced by Encode. Submessage data aliases the
// input buffer; callers that retain payloads past the buffer's lifetime must
// copy them.
func Decode(b []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a frame produced by Encode into m, reusing m.Subs'
// capacity across calls (the exchange hot path decodes one frame per
// neighbor per stage into the same scratch Message). On error m is left in
// an unspecified state. Submessage data aliases b, exactly as with Decode;
// a caller that reuses m must have copied out (or finished with) the
// previous frame's submessages first.
func DecodeInto(m *Message, b []byte) error {
	from, to, nsubs, err := readHeader(b)
	if err != nil {
		return err
	}
	m.From, m.To = from, to
	b = b[MsgHeaderLen:]
	// Every submessage takes at least its header, so a count the rest of
	// the frame cannot hold is corrupt; rejecting it here keeps it from
	// sizing the Subs allocation below.
	if nsubs < 0 || nsubs > len(b)/SubHeaderLen {
		return fmt.Errorf("msg: implausible submessage count %d for a %d-byte frame", nsubs, len(b)+MsgHeaderLen)
	}
	if cap(m.Subs) >= nsubs {
		m.Subs = m.Subs[:0]
	} else {
		m.Subs = make([]Submessage, 0, nsubs)
	}
	for i := 0; i < nsubs; i++ {
		src, dst, dlen, err := readHeader(b)
		if err != nil {
			return err
		}
		b = b[SubHeaderLen:]
		if dlen < 0 || len(b) < dlen {
			return ErrTruncated
		}
		m.Subs = append(m.Subs, Submessage{Src: src, Dst: dst, Data: b[:dlen:dlen]})
		b = b[dlen:]
	}
	if len(b) != 0 {
		return fmt.Errorf("msg: %d trailing bytes after frame", len(b))
	}
	return nil
}
