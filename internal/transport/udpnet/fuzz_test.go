package udpnet

import (
	"bytes"
	"math"
	"testing"
)

// buildDataPacket assembles a well-formed data datagram without a
// piggybacked ack for seeding.
func buildDataPacket(from int, seq uint32, chunks []chunk) []byte {
	return buildDataPacketHdr(dgramHeader{kind: kindData, from: from, seq: seq}, chunks)
}

func buildDataPacketHdr(h dgramHeader, chunks []chunk) []byte {
	b := make([]byte, dgramHdrLen, maxDatagram)
	h.count = len(chunks)
	putDgramHeader(b, h)
	for _, c := range chunks {
		b = appendChunk(b, c.tag, c.frameID, c.frameLen, c.off, c.frag)
	}
	return b
}

// FuzzParseDgram drives the datagram parsers with arbitrary bytes: they
// must never panic or over-read, truncated/corrupt-length inputs must
// error, and every accepted chunk's fragment must lie inside both the
// datagram and its declared frame — the exact properties the receive path
// relies on to drop garbage safely.
func FuzzParseDgram(f *testing.F) {
	f.Add([]byte{}, uint16(4))
	f.Add(buildDataPacket(1, 7, []chunk{{tag: 3, frameID: 0, frameLen: 5, off: 0, frag: []byte("hello")}}), uint16(4))
	f.Add(buildDataPacket(0, 0, []chunk{
		{tag: 1, frameID: 2, frameLen: 10, off: 0, frag: []byte("split")},
		{tag: 1, frameID: 2, frameLen: 10, off: 5, frag: []byte("frame")},
	}), uint16(8))
	f.Add(buildAck(make([]byte, 0, maxDatagram), 2, 99, 1500, 0xdeadbeef), uint16(4))
	hello := []chunk{{tag: 3, frameID: 0, frameLen: 5, off: 0, frag: []byte("hello")}}
	// Piggybacked ack: flag set, flag set with a saturated hold, and a
	// flag byte with bits no version defines.
	f.Add(buildDataPacketHdr(dgramHeader{kind: kindData, from: 1, seq: 7, hasAck: true, ack: 41, ackDelay: 250}, hello), uint16(4))
	f.Add(buildDataPacketHdr(dgramHeader{kind: kindData, from: 1, seq: 7, hasAck: true, ack: 41, ackDelay: math.MaxUint32}, hello), uint16(4))
	badFlags := buildDataPacket(1, 7, hello)
	badFlags[1] = 0x82
	f.Add(badFlags, uint16(4))
	noAck := buildAck(make([]byte, 0, maxDatagram), 2, 99, 0, 1)
	noAck[1] = 0 // an ack datagram that acks nothing
	f.Add(noAck, uint16(4))
	trunc := buildDataPacket(1, 1, []chunk{{tag: 2, frameLen: 100, frag: make([]byte, 50)}})
	f.Add(trunc[:len(trunc)-10], uint16(4))
	lied := buildDataPacket(1, 1, []chunk{{tag: 2, frameLen: 8, frag: make([]byte, 8)}})
	lied[dgramHdrLen+16] = 0xff // fragLen claims more bytes than present
	f.Add(lied, uint16(4))

	f.Fuzz(func(t *testing.T, data []byte, size16 uint16) {
		size := int(size16%64) + 1
		h, body, err := parseDgram(data, size)
		if err != nil {
			return
		}
		if h.from < 0 || h.from >= size {
			t.Fatalf("accepted out-of-range rank %d (size %d)", h.from, size)
		}
		if !h.hasAck && (h.ack != 0 || h.ackDelay != 0 || h.kind == kindAck) {
			t.Fatalf("ack fields surfaced without the flag: %+v", h)
		}
		switch h.kind {
		case kindAck:
			if _, err := parseAck(body); err != nil {
				return
			}
			if len(body) != ackBodyLen {
				t.Fatalf("ack accepted with %d body bytes", len(body))
			}
		case kindData:
			for k := 0; k < h.count; k++ {
				c, rest, err := nextChunk(body)
				if err != nil {
					return
				}
				if c.frameLen > maxFrameLen {
					t.Fatalf("chunk accepted with frame length %d", c.frameLen)
				}
				if uint64(c.off)+uint64(len(c.frag)) > uint64(c.frameLen) {
					t.Fatalf("fragment [%d,%d) outside frame of %d bytes", c.off, int(c.off)+len(c.frag), c.frameLen)
				}
				// The fragment must alias the input, not memory beyond it.
				if len(c.frag) > len(body)-chunkHdrLen {
					t.Fatalf("fragment of %d bytes from %d available", len(c.frag), len(body)-chunkHdrLen)
				}
				body = rest
			}
		default:
			t.Fatalf("parseDgram accepted kind %d", h.kind)
		}
	})
}

// FuzzPacketRoundTrip checks encode→decode is the identity on structured
// inputs within wire-format bounds.
func FuzzPacketRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint32(2), []byte("payload"), uint32(0), uint32(7), false, uint32(0), uint32(0))
	f.Add(uint32(0), uint32(0), []byte{}, uint32(0), uint32(0), true, uint32(0), uint32(0))
	f.Add(uint32(99), uint32(1<<20), bytes.Repeat([]byte{0xAA}, 4000), uint32(500), uint32(5000), true, uint32(98), uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, seq, tag32 uint32, frag []byte, off, frameLen uint32, hasAck bool, ack, ackDelay uint32) {
		if len(frag) > maxDatagram-dgramHdrLen-chunkHdrLen {
			frag = frag[:maxDatagram-dgramHdrLen-chunkHdrLen]
		}
		if frameLen > maxFrameLen {
			frameLen = maxFrameLen
		}
		if uint64(off)+uint64(len(frag)) > uint64(frameLen) {
			if uint64(len(frag)) > uint64(frameLen) {
				frag = frag[:frameLen]
			}
			off = frameLen - uint32(len(frag))
		}
		tag := int(tag32 & 0x7fffffff)
		if !hasAck {
			ack, ackDelay = 0, 0 // not on the wire without the flag
		}
		want := dgramHeader{kind: kindData, count: 1, from: 2, seq: seq, hasAck: hasAck, ack: ack, ackDelay: ackDelay}
		pkt := buildDataPacketHdr(want, []chunk{{tag: tag, frameID: 11, frameLen: frameLen, off: off, frag: frag}})
		h, body, err := parseDgram(pkt, 4)
		if err != nil {
			t.Fatalf("well-formed packet rejected: %v", err)
		}
		if h != want {
			t.Fatalf("header round trip: %+v, want %+v", h, want)
		}
		c, rest, err := nextChunk(body)
		if err != nil {
			t.Fatalf("well-formed chunk rejected: %v", err)
		}
		if len(rest) != 0 || c.tag != tag || c.frameID != 11 || c.frameLen != frameLen || c.off != off || !bytes.Equal(c.frag, frag) {
			t.Fatalf("chunk round trip: %+v", c)
		}

		adg := buildAck(make([]byte, 0, maxDatagram), 3, seq, ackDelay, uint64(off)<<32|uint64(frameLen))
		ah, abody, err := parseDgram(adg, 4)
		if err != nil || ah != (dgramHeader{kind: kindAck, from: 3, hasAck: true, ack: seq, ackDelay: ackDelay}) {
			t.Fatalf("ack round trip: %+v %v", ah, err)
		}
		bm, err := parseAck(abody)
		if err != nil || bm != uint64(off)<<32|uint64(frameLen) {
			t.Fatalf("ack bitmap round trip: %x %v", bm, err)
		}
	})
}
