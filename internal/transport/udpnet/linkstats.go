package udpnet

import (
	"sync/atomic"

	"stfw/internal/runtime"
)

// Per-link wire metrics: one atomic counter block per directed peer
// relationship of each local rank, shared by that rank's send link (this
// rank -> peer) and receive link (peer -> this rank). The hot paths —
// sendFrame, the sender drain, the receiver's sequencing loop, the ack
// machinery — touch these with single atomic adds under locks they already
// hold, so the metrics cost no extra synchronization and no allocation
// (measured at 0.5 % of an STFW iteration when they were introduced), and
// every link always has its block.
//
// The block materializes into the transport-neutral runtime.LinkStats
// snapshot through comm.LinkStats, which is how telemetry.Registry.WrapComm
// folds live wire behaviour into per-rank snapshots (the LinkStatsSource
// seam).

// rttEWMAShift is the smoothing factor of the per-link RTT filter:
// srtt += (sample - srtt) >> rttEWMAShift, the classic 1/8 gain.
const rttEWMAShift = 3

// linkMetrics is the per-directed-link counter block.
type linkMetrics struct {
	// send direction
	framesSent, bytesSent          atomic.Int64
	pktsSent                       atomic.Int64
	timeoutResends, gapResends     atomic.Int64
	sackRepairs                    atomic.Int64
	windowStalls, backlogHighWater atomic.Int64
	// srttNs is written only by the owning rank's receiver goroutine
	// (handleAck); concurrent readers see a coherent EWMA through the
	// atomic load/store pair.
	srttNs, rttSamples atomic.Int64

	// receive direction
	framesRecvd, bytesRecvd                           atomic.Int64
	pktsRecvd, dups                                   atomic.Int64
	acksSent, acksSuppressed, stageAcks, livenessAcks atomic.Int64
}

func (m *linkMetrics) frameSent() {
	m.framesSent.Add(1)
}

// pktSent records one first transmission of a data datagram and its wire
// length (headers included). Retransmissions are counted separately by
// resend and never re-add bytes.
func (m *linkMetrics) pktSent(bytes int) {
	m.pktsSent.Add(1)
	m.bytesSent.Add(int64(bytes))
}

// noteBacklog ratchets the backlog high-water mark. The caller holds the
// send link's lock, so load/store is single-writer.
func (m *linkMetrics) noteBacklog(depth int) {
	if int64(depth) > m.backlogHighWater.Load() {
		m.backlogHighWater.Store(int64(depth))
	}
}

func (m *linkMetrics) resend(timeout bool) {
	if timeout {
		m.timeoutResends.Add(1)
	} else {
		m.gapResends.Add(1)
	}
}

func (m *linkMetrics) sackRepair() {
	m.sackRepairs.Add(1)
}

func (m *linkMetrics) windowStall() {
	m.windowStalls.Add(1)
}

// rttSample folds one Karn-filtered ack round trip into the EWMA: rawNs
// from the packet leaving to its ack arriving, less ackDelayNs, the time
// the receiver reported holding the ack — so SRTT tracks the wire, not the
// ack policy. A reported hold longer than the raw sample (clock
// granularity, a saturated field) clamps to zero. Only the owning rank's
// receiver goroutine calls this, so the read-modify-write is single-writer.
func (m *linkMetrics) rttSample(rawNs, ackDelayNs int64) {
	if rawNs < 0 {
		return
	}
	ns := rawNs - ackDelayNs
	if ns < 0 {
		ns = 0
	}
	if n := m.rttSamples.Add(1); n == 1 {
		m.srttNs.Store(ns)
		return
	}
	srtt := m.srttNs.Load()
	m.srttNs.Store(srtt + ((ns - srtt) >> rttEWMAShift))
}

func (m *linkMetrics) pktRecvd(bytes int) {
	m.pktsRecvd.Add(1)
	m.bytesRecvd.Add(int64(bytes))
}

func (m *linkMetrics) dup() {
	m.dups.Add(1)
}

func (m *linkMetrics) frameRecvd() {
	m.framesRecvd.Add(1)
}

func (m *linkMetrics) ackSent() {
	m.acksSent.Add(1)
}

func (m *linkMetrics) ackSuppressed() {
	m.acksSuppressed.Add(1)
}

func (m *linkMetrics) stageAck() {
	m.stageAcks.Add(1)
}

func (m *linkMetrics) livenessAck() {
	m.livenessAcks.Add(1)
}

// snapshot materializes the counter block into the transport-neutral form.
func (m *linkMetrics) snapshot(peer int) runtime.LinkStats {
	return runtime.LinkStats{
		Peer:             peer,
		FramesSent:       m.framesSent.Load(),
		BytesSent:        m.bytesSent.Load(),
		PktsSent:         m.pktsSent.Load(),
		TimeoutResends:   m.timeoutResends.Load(),
		GapResends:       m.gapResends.Load(),
		SackRepairs:      m.sackRepairs.Load(),
		WindowStalls:     m.windowStalls.Load(),
		BacklogHighWater: m.backlogHighWater.Load(),
		SRTTNs:           m.srttNs.Load(),
		RTTSamples:       m.rttSamples.Load(),
		FramesRecvd:      m.framesRecvd.Load(),
		BytesRecvd:       m.bytesRecvd.Load(),
		PktsRecvd:        m.pktsRecvd.Load(),
		Dups:             m.dups.Load(),
		AcksSent:         m.acksSent.Load(),
		AcksSuppressed:   m.acksSuppressed.Load(),
		StageAcks:        m.stageAcks.Load(),
		LivenessAcks:     m.livenessAcks.Load(),
	}
}

// LinkStats implements runtime.LinkStatsSource for one local rank: a
// snapshot of every directed link that saw traffic, sorted by peer (the
// metrics array is peer-indexed).
func (c *comm) LinkStats() []runtime.LinkStats {
	out := make([]runtime.LinkStats, 0, len(c.rs.lm))
	for peer, m := range c.rs.lm {
		if peer == c.rs.rank {
			continue
		}
		ls := m.snapshot(peer)
		if ls.Zero() {
			continue
		}
		out = append(out, ls)
	}
	return out
}

// RankLinkStats returns the per-link snapshot of one local rank without
// going through a Comm — the multi-process netstat driver reads stats
// after Run has returned the communicators to the pool. Nil for remote
// ranks.
func (w *World) RankLinkStats(rank int) []runtime.LinkStats {
	if rank < 0 || rank >= len(w.byRank) || w.byRank[rank] == nil {
		return nil
	}
	c := comm{w: w, rs: w.byRank[rank]}
	return c.LinkStats()
}
