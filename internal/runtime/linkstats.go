package runtime

// Per-link wire observability: the transport-level counterpart of the
// telemetry package's per-stage counters. A wire transport that keeps
// reliability state per directed link (internal/transport/udpnet's
// seq+SACK windows, tcpnet's coalescing streams) exposes what each link
// actually did — packets, resends, repairs, stalls, round trips — through
// the LinkStatsSource seam, so the telemetry registry can fold live wire
// behaviour into its per-rank snapshots without this package (or the
// telemetry package) importing any transport.
//
// The seam is read-only and snapshot-shaped: transports maintain their
// counters with whatever discipline their hot path needs (atomics under
// udpnet's link locks, plain adds under tcpnet's conn locks) and
// materialize plain values only when LinkStats is called. Hot paths never
// see this interface.

// LinkStats is a plain-value snapshot of one directed peer relationship
// (both directions: this rank -> Peer sends, Peer -> this rank receives)
// as observed by the transport's wire machinery. Fields a transport does
// not track stay zero; Zero reports whether the link saw any traffic at
// all, so sparse worlds can be summarized without K dense rows.
type LinkStats struct {
	// Peer is the remote rank of this directed link pair.
	Peer int `json:"peer"`

	// --- send direction (this rank -> Peer) ---

	// FramesSent counts transport frames handed to the link; BytesSent the
	// wire bytes that carried them (headers included where the transport
	// frames its own packets).
	FramesSent int64 `json:"frames_sent,omitempty"`
	BytesSent  int64 `json:"bytes_sent,omitempty"`
	// PktsSent counts first transmissions of wire packets (datagrams on
	// udpnet, buffered stream writes on tcpnet).
	PktsSent int64 `json:"pkts_sent,omitempty"`
	// TimeoutResends counts retransmissions triggered by the RTO scan;
	// GapResends counts retransmissions triggered by a SACK gap report.
	TimeoutResends int64 `json:"timeout_resends,omitempty"`
	GapResends     int64 `json:"gap_resends,omitempty"`
	// SackRepairs counts window slots released early by a selective ack —
	// packets that survived while a predecessor was lost.
	SackRepairs int64 `json:"sack_repairs,omitempty"`
	// WindowStalls counts drain passes that left sealed packets queued
	// because the peer's in-flight window was exhausted; BacklogHighWater
	// is the deepest the sealed-packet backlog ever got.
	WindowStalls     int64 `json:"window_stalls,omitempty"`
	BacklogHighWater int64 `json:"backlog_high_water,omitempty"`
	// SRTTNs is the smoothed round-trip time (EWMA, nanoseconds) measured
	// from data-packet send to the ack that covered it, Karn-filtered
	// (retransmitted packets never contribute a sample). RTTSamples counts
	// the round trips folded in; SRTTNs is meaningless while it is zero.
	SRTTNs     int64 `json:"srtt_ns,omitempty"`
	RTTSamples int64 `json:"rtt_samples,omitempty"`

	// --- receive direction (Peer -> this rank) ---

	// FramesRecvd counts transport frames delivered from the link;
	// BytesRecvd the wire bytes that carried them.
	FramesRecvd int64 `json:"frames_recvd,omitempty"`
	BytesRecvd  int64 `json:"bytes_recvd,omitempty"`
	// PktsRecvd counts wire packets processed in sequence; Dups counts
	// duplicate or out-of-window packets dropped.
	PktsRecvd int64 `json:"pkts_recvd,omitempty"`
	Dups      int64 `json:"dups,omitempty"`
	// Ack decisions, classified by what made the ack leave, whichever
	// vehicle carried it (a stand-alone ack datagram or the header of a
	// data packet to the peer): AcksSent is every ack that left; StageAcks
	// reported a completed hinted stage's inbound set (the
	// schedule-driven path); LivenessAcks were stand-alone acks forced by
	// a liveness rule (half-window credit pressure, a reorder gap, a
	// duplicate, or the hold timer) while a TrafficHinter hint was still
	// unfinished. AcksSuppressed counts receive batches that ended with
	// the ack still owed, waiting for a data packet to carry it.
	AcksSent       int64 `json:"acks_sent,omitempty"`
	AcksSuppressed int64 `json:"acks_suppressed,omitempty"`
	StageAcks      int64 `json:"stage_acks,omitempty"`
	LivenessAcks   int64 `json:"liveness_acks,omitempty"`
}

// Zero reports whether the link saw no traffic in either direction.
func (l *LinkStats) Zero() bool {
	return l.FramesSent == 0 && l.FramesRecvd == 0 &&
		l.PktsSent == 0 && l.PktsRecvd == 0 &&
		l.AcksSent == 0 && l.AcksSuppressed == 0 && l.Dups == 0
}

// Add folds another link's counters into l (Peer is left alone); the
// fleet merge uses it to aggregate per-rank or per-world summaries. SRTT
// merges as a sample-weighted mean so aggregates stay in RTT units.
func (l *LinkStats) Add(o LinkStats) {
	if n := l.RTTSamples + o.RTTSamples; n > 0 {
		l.SRTTNs = (l.SRTTNs*l.RTTSamples + o.SRTTNs*o.RTTSamples) / n
		l.RTTSamples = n
	}
	l.FramesSent += o.FramesSent
	l.BytesSent += o.BytesSent
	l.PktsSent += o.PktsSent
	l.TimeoutResends += o.TimeoutResends
	l.GapResends += o.GapResends
	l.SackRepairs += o.SackRepairs
	l.WindowStalls += o.WindowStalls
	if o.BacklogHighWater > l.BacklogHighWater {
		l.BacklogHighWater = o.BacklogHighWater
	}
	l.FramesRecvd += o.FramesRecvd
	l.BytesRecvd += o.BytesRecvd
	l.PktsRecvd += o.PktsRecvd
	l.Dups += o.Dups
	l.AcksSent += o.AcksSent
	l.AcksSuppressed += o.AcksSuppressed
	l.StageAcks += o.StageAcks
	l.LivenessAcks += o.LivenessAcks
}

// Resends returns the total retransmissions regardless of trigger.
func (l *LinkStats) Resends() int64 { return l.TimeoutResends + l.GapResends }

// LinkStatsSource is an optional Comm extension: a transport that keeps
// per-link wire state implements it to expose a snapshot of every
// directed link this rank owns. Links that never saw traffic may be
// omitted. The returned slice is freshly built per call (it is a
// snapshot, not live state) and sorted by Peer.
type LinkStatsSource interface {
	LinkStats() []LinkStats
}

// LinkStatsOf returns c's per-link wire snapshot when the transport (or a
// forwarding wrapper) exposes one, and nil otherwise.
func LinkStatsOf(c Comm) []LinkStats {
	if s, ok := c.(LinkStatsSource); ok {
		return s.LinkStats()
	}
	return nil
}
