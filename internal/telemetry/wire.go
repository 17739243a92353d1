package telemetry

import (
	"encoding/binary"
	"fmt"
	"time"

	"stfw/internal/runtime"
)

// Snapshot wire format: a versioned, self-contained binary encoding of a
// Snapshot, the unit of cross-process fleet aggregation. A child process
// encodes its registry's snapshot once at exit (or on demand over a pipe /
// socket), the collector decodes and merges (see fleet.go). Binary rather
// than JSON because a snapshot carries span rings — tens of thousands of
// fixed-width records — and because a total, versioned parser is easy to
// fuzz (FuzzDecodeSnapshot) and easy to reject on skew: a collector never
// guesses at a snapshot from a different build generation.
//
// Layout (all integers little-endian):
//
//	magic    [8]byte "STFWSNAP"
//	version  uint16
//	epochNs  int64  (registry epoch, wall clock, UnixNano)
//	frameSizes, stageNs  histogram
//	rankCount uint32, then per rank:
//	  rank uint32
//	  barriers barrierNs patches patchNs patchDirtyStages  int64
//	  epochOffsetNs spanCount traced                       int64
//	  stageCount uint32, then per stage 6×int64
//	  linkCount  uint32, then per link uint32 peer + 18×int64
//	  spanLen    uint32, then per span uint8 kind, int32 stage, int32 peer, 2×int64
//
//	histogram: count int64, sum int64, bucketLen uint32, bucketLen×int64

// SnapshotWireVersion is the current encoding generation. Bump it on any
// layout change; DecodeSnapshot rejects every other version.
const SnapshotWireVersion = 4

var snapshotMagic = [8]byte{'S', 'T', 'F', 'W', 'S', 'N', 'A', 'P'}

// linkStatsFields is the number of int64 counters one LinkStats record
// carries after its peer field. Changing runtime.LinkStats means bumping
// SnapshotWireVersion and this constant together.
const linkStatsFields = 18

// EncodeSnapshot serializes s into the versioned wire format.
func EncodeSnapshot(s Snapshot) []byte {
	// Pre-size roughly: fixed header + per-rank records; growth beyond the
	// estimate is just an append re-allocation.
	est := 64 + len(s.Ranks)*128
	for _, r := range s.Ranks {
		est += len(r.Stages)*48 + len(r.Links)*(4+8*linkStatsFields) + len(r.Spans)*25
	}
	b := make([]byte, 0, est)
	b = append(b, snapshotMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, SnapshotWireVersion)
	b = appendI64(b, s.Epoch.UnixNano())
	b = appendHist(b, s.FrameSizes)
	b = appendHist(b, s.StageNs)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Ranks)))
	for _, r := range s.Ranks {
		b = binary.LittleEndian.AppendUint32(b, uint32(r.Rank))
		b = appendI64(b, r.Barriers, r.BarrierNs, r.Patches, r.PatchNs, r.PatchDirtyStages)
		b = appendI64(b, r.EpochOffsetNs, r.SpanCount, r.Traced)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Stages)))
		for _, c := range r.Stages {
			b = appendI64(b, c.Sends, c.SendBytes, c.Recvs, c.RecvBytes, c.Forwards, c.FwdBytes)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Links)))
		for _, l := range r.Links {
			b = binary.LittleEndian.AppendUint32(b, uint32(l.Peer))
			b = appendI64(b,
				l.FramesSent, l.BytesSent, l.PktsSent,
				l.TimeoutResends, l.GapResends, l.SackRepairs,
				l.WindowStalls, l.BacklogHighWater, l.SRTTNs, l.RTTSamples,
				l.FramesRecvd, l.BytesRecvd, l.PktsRecvd, l.Dups,
				l.AcksSent, l.AcksSuppressed, l.StageAcks, l.LivenessAcks)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r.Spans)))
		for _, sp := range r.Spans {
			b = append(b, byte(sp.Kind))
			b = binary.LittleEndian.AppendUint32(b, uint32(sp.Stage))
			b = binary.LittleEndian.AppendUint32(b, uint32(sp.Peer))
			b = appendI64(b, sp.Start, sp.Dur)
		}
	}
	return b
}

func appendI64(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func appendHist(b []byte, h HistSnapshot) []byte {
	b = appendI64(b, h.Count, h.Sum)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.Buckets)))
	return appendI64(b, h.Buckets...)
}

// wireReader is a bounds-checked cursor over an encoded snapshot. Every
// read reports failure through err once; callers check it at section
// boundaries, so a truncated or hostile input degrades to one error, never
// a panic or a huge allocation.
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("telemetry: decode snapshot: "+format, args...)
	}
}

func (r *wireReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b)-r.off < n {
		r.fail("truncated at offset %d (want %d bytes, have %d)", r.off, n, len(r.b)-r.off)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *wireReader) u8() byte {
	s := r.bytes(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *wireReader) u16() uint16 {
	s := r.bytes(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *wireReader) u32() uint32 {
	s := r.bytes(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *wireReader) i64() int64 {
	s := r.bytes(8)
	if s == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(s))
}

// count reads a length prefix and validates it against the bytes actually
// remaining (elemSize is the minimum encoded size of one element), so a
// forged length can never drive a giant allocation.
func (r *wireReader) count(what string, elemSize int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if int64(n)*int64(elemSize) > int64(len(r.b)-r.off) {
		r.fail("%s count %d exceeds remaining %d bytes", what, n, len(r.b)-r.off)
		return 0
	}
	return int(n)
}

func (r *wireReader) hist() HistSnapshot {
	h := HistSnapshot{Count: r.i64(), Sum: r.i64()}
	n := r.count("histogram buckets", 8)
	if n > histBuckets {
		r.fail("histogram has %d buckets, max %d", n, histBuckets)
		return HistSnapshot{}
	}
	for i := 0; i < n; i++ {
		h.Buckets = append(h.Buckets, r.i64())
	}
	return h
}

// DecodeSnapshot parses an encoded snapshot, rejecting bad magic, any
// version other than SnapshotWireVersion, and structurally invalid input.
// The parser is total: no input panics or allocates beyond the input size.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	r := &wireReader{b: b}
	var magic [8]byte
	copy(magic[:], r.bytes(8))
	if r.err == nil && magic != snapshotMagic {
		return Snapshot{}, fmt.Errorf("telemetry: decode snapshot: bad magic %q", magic[:])
	}
	if v := r.u16(); r.err == nil && v != SnapshotWireVersion {
		return Snapshot{}, fmt.Errorf("telemetry: decode snapshot: version %d, want %d", v, SnapshotWireVersion)
	}
	var s Snapshot
	if ns := r.i64(); r.err == nil {
		s.Epoch = time.Unix(0, ns)
	}
	s.FrameSizes = r.hist()
	s.StageNs = r.hist()
	// Minimum encoded rank: rank u32 + 8 scalar int64s + three empty
	// section length prefixes.
	nRanks := r.count("rank", 4+8*8+3*4)
	for i := 0; i < nRanks && r.err == nil; i++ {
		rs := RankSnapshot{Rank: int(int32(r.u32()))}
		rs.Barriers, rs.BarrierNs = r.i64(), r.i64()
		rs.Patches, rs.PatchNs, rs.PatchDirtyStages = r.i64(), r.i64(), r.i64()
		rs.EpochOffsetNs, rs.SpanCount, rs.Traced = r.i64(), r.i64(), r.i64()
		if rs.Rank < 0 {
			r.fail("negative rank %d", rs.Rank)
			break
		}
		nStages := r.count("stage", 6*8)
		for d := 0; d < nStages; d++ {
			rs.Stages = append(rs.Stages, CounterSnapshot{
				Sends: r.i64(), SendBytes: r.i64(),
				Recvs: r.i64(), RecvBytes: r.i64(),
				Forwards: r.i64(), FwdBytes: r.i64(),
			})
		}
		nLinks := r.count("link", 4+linkStatsFields*8)
		for l := 0; l < nLinks; l++ {
			ls := runtime.LinkStats{Peer: int(int32(r.u32()))}
			ls.FramesSent, ls.BytesSent, ls.PktsSent = r.i64(), r.i64(), r.i64()
			ls.TimeoutResends, ls.GapResends, ls.SackRepairs = r.i64(), r.i64(), r.i64()
			ls.WindowStalls, ls.BacklogHighWater = r.i64(), r.i64()
			ls.SRTTNs, ls.RTTSamples = r.i64(), r.i64()
			ls.FramesRecvd, ls.BytesRecvd, ls.PktsRecvd, ls.Dups = r.i64(), r.i64(), r.i64(), r.i64()
			ls.AcksSent, ls.AcksSuppressed = r.i64(), r.i64()
			ls.StageAcks, ls.LivenessAcks = r.i64(), r.i64()
			rs.Links = append(rs.Links, ls)
		}
		nSpans := r.count("span", 1+4+4+2*8)
		for sp := 0; sp < nSpans; sp++ {
			rs.Spans = append(rs.Spans, Span{
				Kind:  Kind(r.u8()),
				Stage: int32(r.u32()),
				Peer:  int32(r.u32()),
				Start: r.i64(),
				Dur:   r.i64(),
			})
		}
		s.Ranks = append(s.Ranks, rs)
	}
	if r.err != nil {
		return Snapshot{}, r.err
	}
	if r.off != len(b) {
		return Snapshot{}, fmt.Errorf("telemetry: decode snapshot: %d trailing bytes", len(b)-r.off)
	}
	return s, nil
}
