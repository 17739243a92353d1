package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"stfw/internal/runtime"
)

// wireTestSnapshot builds a snapshot exercising every section of the wire
// format: world histograms, per-rank scalars, stage counters, link stats,
// and spans (including a non-stage-scoped one with Stage -1 and Peer -1).
func wireTestSnapshot() Snapshot {
	return Snapshot{
		Epoch: time.Unix(0, 1_700_000_000_123_456_789),
		FrameSizes: HistSnapshot{
			Count: 3, Sum: 900, Buckets: []int64{0, 1, 2},
		},
		StageNs: HistSnapshot{Count: 1, Sum: 42, Buckets: []int64{1}},
		Ranks: []RankSnapshot{
			{
				Rank:     0,
				Barriers: 2, BarrierNs: 1000,
				Patches: 1, PatchNs: 500, PatchDirtyStages: 3,
				EpochOffsetNs: 0, SpanCount: 2, Traced: 1,
				Stages: []CounterSnapshot{
					{Sends: 5, SendBytes: 1280, Recvs: 5, RecvBytes: 1280, Forwards: 2, FwdBytes: 512},
					{Sends: 3, SendBytes: 768, Recvs: 3, RecvBytes: 768},
				},
				Links: []runtime.LinkStats{{
					Peer: 1, FramesSent: 10, BytesSent: 2900, PktsSent: 9,
					TimeoutResends: 1, GapResends: 2, SackRepairs: 1,
					WindowStalls: 1, BacklogHighWater: 6,
					SRTTNs: 150_000, RTTSamples: 8,
					FramesRecvd: 10, BytesRecvd: 2900, PktsRecvd: 11, Dups: 2,
					AcksSent: 4, AcksSuppressed: 6, StageAcks: 3, LivenessAcks: 1,
				}},
				Spans: []Span{
					{Kind: KDeliver, Stage: 0, Peer: 1, Start: 100, Dur: 50},
					{Kind: KExchange, Stage: -1, Peer: -1, Start: 200, Dur: 10},
				},
			},
			{
				Rank:          3, // ranks need not be dense
				EpochOffsetNs: 2_000_000,
				SpanCount:     1,
				Traced:        1,
				Spans:         []Span{{Kind: KDeliver, Stage: 1, Peer: 2, Start: 400, Dur: 25}},
			},
		},
	}
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	want := wireTestSnapshot()
	b := EncodeSnapshot(want)
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Epoch.Equal(want.Epoch) {
		t.Fatalf("epoch %v != %v", got.Epoch, want.Epoch)
	}
	// Compare the rest structurally with the epochs normalized (time.Time
	// representations may differ even when Equal).
	got.Epoch, want.Epoch = time.Time{}, time.Time{}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotWireRoundTripEmpty(t *testing.T) {
	want := Snapshot{Epoch: time.Unix(0, 7)}
	got, err := DecodeSnapshot(EncodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Ranks) != 0 || !got.Epoch.Equal(want.Epoch) {
		t.Fatalf("empty round trip: %+v", got)
	}
}

// TestDecodeSnapshotRejects drives the parser's rejection paths: bad
// magic, version skew, every possible truncation point, trailing garbage,
// and a forged section count. None may panic; all must error.
func TestDecodeSnapshotRejects(t *testing.T) {
	good := EncodeSnapshot(wireTestSnapshot())

	if _, err := DecodeSnapshot(nil); err == nil {
		t.Error("nil input accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'X'
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Error("bad magic accepted")
	}
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(bad[8:], SnapshotWireVersion+1)
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Error("future version accepted — collectors must reject build skew")
	}
	// Version 1 carried a third histogram and four more words per rank;
	// version 2 had no traced count per rank and no peer per span. A child
	// from either build generation must not be half-parsed.
	for _, v := range []uint16{1, 2} {
		binary.LittleEndian.PutUint16(bad[8:], v)
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Errorf("version %d accepted", v)
		}
	}
	for n := 0; n < len(good); n++ {
		if _, err := DecodeSnapshot(good[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", n, len(good))
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), good...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Forge the rank count to a huge value: the length-vs-remaining check
	// must refuse before any allocation happens.
	bad = append([]byte(nil), good...)
	off := 8 + 2 + 8         // magic + version + epoch
	for i := 0; i < 2; i++ { // skip the two histograms
		bl := binary.LittleEndian.Uint32(bad[off+16:])
		off += 16 + 4 + int(bl)*8
	}
	binary.LittleEndian.PutUint32(bad[off:], 1<<31)
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Error("forged rank count accepted")
	}
}

// TestMergeSnapshotsOffsets is the fleet-normalization regression test:
// two processes with epochs 5ms apart merge onto the earliest epoch, and
// the later process's ranks carry the delta in EpochOffsetNs.
func TestMergeSnapshotsOffsets(t *testing.T) {
	base := time.Unix(0, 1_700_000_000_000_000_000)
	mk := func(epoch time.Time, rank int) Snapshot {
		return Snapshot{
			Epoch:      epoch,
			FrameSizes: HistSnapshot{Count: 1, Sum: 10, Buckets: []int64{1}},
			Ranks: []RankSnapshot{{
				Rank: rank, SpanCount: 1,
				Spans: []Span{{Kind: KDeliver, Stage: 0, Start: 100, Dur: 50}},
			}},
		}
	}
	a := mk(base.Add(5*time.Millisecond), 0) // later process holds rank 0
	b := mk(base, 1)
	merged, err := MergeSnapshots([]Snapshot{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Epoch.Equal(base) {
		t.Fatalf("world epoch %v, want the earliest %v", merged.Epoch, base)
	}
	if len(merged.Ranks) != 2 {
		t.Fatalf("merged world has %d ranks, want 2", len(merged.Ranks))
	}
	if got := merged.Ranks[0].EpochOffsetNs; got != 5_000_000 {
		t.Errorf("rank 0 offset %d ns, want 5000000", got)
	}
	if got := merged.Ranks[1].EpochOffsetNs; got != 0 {
		t.Errorf("rank 1 offset %d ns, want 0", got)
	}
	if merged.FrameSizes.Count != 2 || merged.FrameSizes.Sum != 20 {
		t.Errorf("histograms did not sum: %+v", merged.FrameSizes)
	}

	if _, err := MergeSnapshots(nil); err == nil {
		t.Error("merge of zero snapshots accepted")
	}
	if _, err := MergeSnapshots([]Snapshot{a, mk(base, 0)}); err == nil {
		t.Error("two processes claiming rank 0 accepted")
	}
}

// TestStageStragglersGatingPeer: the straggler table names the slowest
// rank's most frequent last sender per stage (the lowest on a tie, -1 when
// it received nothing), the text table prints it, and the Perfetto slices
// carry each span's peer.
func TestStageStragglersGatingPeer(t *testing.T) {
	snap := Snapshot{Ranks: []RankSnapshot{
		{Rank: 0, Spans: []Span{
			{Kind: KDeliver, Stage: 0, Peer: 1, Dur: 10},
			{Kind: KDeliver, Stage: 1, Peer: -1, Dur: 90},
		}},
		{Rank: 1, Spans: []Span{
			{Kind: KForward, Stage: 0, Peer: -1, Dur: 50},
			{Kind: KDeliver, Stage: 0, Peer: 3, Dur: 20},
			{Kind: KDeliver, Stage: 0, Peer: 2, Dur: 20},
			{Kind: KDeliver, Stage: 0, Peer: 2, Dur: 20},
			{Kind: KDeliver, Stage: 1, Peer: 5, Dur: 10},
			{Kind: KDeliver, Stage: 1, Peer: 4, Dur: 10},
		}},
	}}
	got := snap.StageStragglers()
	if len(got) != 2 {
		t.Fatalf("%d straggler rows, want 2", len(got))
	}
	if sg := got[0]; sg.SlowestRank != 1 || sg.GatingPeer != 2 {
		t.Errorf("stage 0: slowest %d gated by %d, want rank 1 gated by 2", sg.SlowestRank, sg.GatingPeer)
	}
	if sg := got[1]; sg.SlowestRank != 0 || sg.GatingPeer != -1 {
		t.Errorf("stage 1: slowest %d gated by %d, want rank 0 gated by -1", sg.SlowestRank, sg.GatingPeer)
	}
	if p := modePeer(map[int32]int{5: 1, 4: 1}); p != 4 {
		t.Errorf("tie broken to %d, want the lower peer 4", p)
	}
	var buf bytes.Buffer
	WriteStragglers(&buf, got)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || !strings.HasSuffix(lines[0], "gated_by") ||
		!strings.HasSuffix(lines[1], " 2") || !strings.HasSuffix(lines[2], " -") {
		t.Errorf("straggler table:\n%s", buf.String())
	}
	peers := map[int]int{}
	for _, e := range buildTrace(snap).TraceEvents {
		if p, ok := e.Args["peer"]; ok {
			peers[p.(int)]++
		}
	}
	if want := map[int]int{1: 1, 2: 2, 3: 1, 4: 1, 5: 1}; !reflect.DeepEqual(peers, want) {
		t.Errorf("trace peer args %v, want %v", peers, want)
	}
}

// TestTraceEpochOffsets pins the world-timeline normalization in the
// trace export: spans from a rank with a nonzero EpochOffsetNs shift by
// exactly that offset, so slices from different processes line up.
func TestTraceEpochOffsets(t *testing.T) {
	snap := Snapshot{
		Epoch: time.Unix(0, 1),
		Ranks: []RankSnapshot{
			{Rank: 0, SpanCount: 1, EpochOffsetNs: 0,
				Spans: []Span{{Kind: KDeliver, Stage: 0, Start: 1_000, Dur: 500}}},
			{Rank: 1, SpanCount: 1, EpochOffsetNs: 2_000_000,
				Spans: []Span{{Kind: KDeliver, Stage: 0, Start: 1_000, Dur: 500}}},
		},
	}
	var buf bytes.Buffer
	if err := WriteSnapshotTrace(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var tf TraceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	ts := map[int]float64{}
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			ts[e.Tid] = e.Ts
		}
	}
	if got, want := ts[0], 1.0; got != want {
		t.Errorf("rank 0 slice at %g us, want %g", got, want)
	}
	if got, want := ts[1], 2001.0; got != want {
		t.Errorf("rank 1 slice at %g us, want %g (offset applied)", got, want)
	}
}

// FuzzDecodeSnapshot fuzzes the wire parser: arbitrary input must never
// panic, and any input that decodes must re-encode canonically (decode ∘
// encode is the identity on decoded values).
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(EncodeSnapshot(wireTestSnapshot()))
	f.Add(EncodeSnapshot(Snapshot{Epoch: time.Unix(0, 7)}))
	f.Add([]byte("STFWSNAP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		b2 := EncodeSnapshot(s)
		s2, err := DecodeSnapshot(b2)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !s2.Epoch.Equal(s.Epoch) {
			t.Fatalf("epoch drifted across re-encode: %v != %v", s2.Epoch, s.Epoch)
		}
		s.Epoch, s2.Epoch = time.Time{}, time.Time{}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("decode/encode not stable:\n got %+v\nwant %+v", s2, s)
		}
	})
}
