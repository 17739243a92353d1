package udpnet

import "sync"

const (
	// window is the per-link sliding window: at most this many data
	// packets may be in flight (sent, unacked) on one directed link. 64
	// matches the ack bitmap width, so one ack describes the whole window.
	window = 64

	// backlogMax bounds sealed packets queued behind the window on one
	// link. App-side Send blocks when the backlog is full, which bounds
	// memory the way a TCP socket buffer does (backlogMax packets of
	// maxDatagram bytes ≈ 4 MiB per congested link, nothing when idle).
	backlogMax = 512

	// recvBufBytes is the SO_RCVBUF every world socket asks for: room for
	// one peer's full window of full datagrams while the receiver
	// goroutine is off the CPU. The default (208 KiB here) holds a quarter
	// of that, and what overflows is dropped and comes back one rto later.
	// Linux charges a queued datagram its buffer's slab size plus an
	// sk_buff — 16.6 KiB for a full one — against twice the value
	// requested, so the request carries 512 bytes a packet on top of
	// maxDatagram (measured: 64 x 8192 still drops 24 packets of a 3 200
	// packet burst, 64 x 8448 and up none). It covers one link; full
	// windows from several peers at once still lean on resend. A request
	// above net.core.rmem_max is clamped by the kernel, not refused.
	recvBufBytes = window * (maxDatagram + 512)
)

// pktSlot is one window entry on the send side: an in-flight data packet
// retained for retransmission until acked.
type pktSlot struct {
	buf []byte // ring buffer holding the encoded datagram; nil when free
	seq uint32

	acked  bool // selectively acked; buffer released, no resend needed
	queued bool // sitting in the sender's out queue (fresh send or resend)
	// resent marks a packet that has been queued for retransmission at
	// least once; Karn's rule excludes it from RTT sampling (the ack could
	// answer either transmission).
	resent bool
	// sending marks the buffer as pinned by an in-progress socket write.
	// An ack landing mid-write must not release the buffer under the
	// syscall — release is deferred via releaseAfterSend instead.
	sending          bool
	releaseAfterSend bool

	lastSend int64 // UnixNano of the last transmission attempt
}

// sendLink is the reliable outbound state for one directed (me → peer)
// link. Three parties touch it under mu: the application goroutine
// (Send appends chunks to the open packet and seals into the backlog),
// the sender goroutine (seals, claims window slots, transmits), and the
// receiver goroutine (processes acks, frees slots, reopens the window).
type sendLink struct {
	mu   sync.Mutex
	cond *sync.Cond // backlog-space waiters (application Send)

	peer int

	// open is the packet currently accepting chunks — the coalescing
	// point. Consecutive frames to the same peer land in one datagram
	// whenever the sender goroutine has not yet drained the link.
	open      []byte
	openCount int

	// backlog holds sealed packets awaiting a window slot, FIFO between
	// backlogHead and len(backlog) (the array is recycled once drained).
	backlog     [][]byte
	backlogHead int

	nextSeq uint32 // next sequence number to assign
	sndUna  uint32 // lowest unacked sequence number
	// wnd holds the window slots, allocated when the first packet is
	// promoted: most of a world's K² links never carry one.
	wnd []pktSlot

	nextFrameID uint32 // per-link frame counter, stamped into chunks
	// framing is set while a Send waits for backlog space in the middle of
	// its frame, with mu released: other Sends on the link wait for it, so
	// one frame's chunks stay contiguous and in frame-ID order.
	framing bool

	inFlush bool // registered in the sender's flush set (outQueue.mu)
	stalled bool // counted a credit stall since the last full drain

	// m is the per-peer wire metrics block shared with the matching
	// recvLink.
	m *linkMetrics
}

func newSendLink(peer int, m *linkMetrics) *sendLink {
	l := &sendLink{peer: peer, m: m}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// inFlight reports the number of unacked packets, callers hold mu.
func (l *sendLink) inFlight() uint32 { return l.nextSeq - l.sndUna }

// slot returns the window slot for seq; callers hold mu and guarantee
// sndUna <= seq < nextSeq (so a packet was promoted and wnd exists).
func (l *sendLink) slot(seq uint32) *pktSlot { return &l.wnd[seq%window] }

// tagHint is one hinted stage's inbound expectation on a link: want frames
// carrying tag, got of them delivered so far.
type tagHint struct {
	tag, want, got int
}

// recvLink is the inbound state for one directed (peer → me) link. The
// receiver goroutine owns the sequencing and reassembly fields outright;
// mu guards the ack/hint state it shares with the sender goroutine (which
// puts the ack on the wire, in a data packet's header or stand-alone), the
// retransmit ticker (which bounds how long an ack may wait for a carrier)
// and the application goroutine (which installs traffic hints).
//
// Lock order: sendLink.mu before recvLink.mu (the sender goroutine stamps
// the reverse link's ack while it holds the send link).
type recvLink struct {
	peer int

	// --- receiver-goroutine-owned: packet sequencing ---

	expected uint32 // next in-order sequence number
	// pending stashes out-of-order packets (ring buffers, retained, cut to
	// their datagram length) at seq%window until the gap before them
	// fills. Allocated on the first out-of-order arrival.
	pending [][]byte
	// sawDup marks a duplicate in the current receive batch: the peer
	// missed an ack, so the batch-end decision re-acks at once.
	sawDup bool
	// inDirty dedups the receiver's per-batch dirty list.
	inDirty bool

	// --- receiver-goroutine-owned: frame reassembly ---
	// Packets are processed strictly in sequence order and the sender
	// fragments one frame at a time per link, so at most one frame is
	// ever partially assembled here.

	cur         []byte // frame under reassembly (msg arena), nil if none
	curGot      int
	curTag      int
	nextFrameID uint32

	mu sync.Mutex

	// --- under mu: ack state ---

	ackCum      uint32 // `expected` as of the last batch end
	ackBm       uint64 // out-of-order stash as of the last batch end
	lastAckSent uint32 // ackCum as of the last ack that left, either vehicle
	// owedSince is the UnixNano at which the oldest arrival the peer has
	// not been told about was sequenced; zero when nothing is owed. The
	// ack leaves on the next data packet to the peer, or stand-alone once
	// it has waited ackHoldMax.
	owedSince int64
	// arrived is the UnixNano at which ackCum last advanced, the base of
	// the ackDelay the departing ack reports.
	arrived       int64
	ackQueued     bool // a stand-alone ack for this link sits in the out queue
	stageComplete bool // a hinted stage finished since the last ack left

	// --- under mu: schedule traffic hints ---

	// hint lists the frames expected from this peer per hinted stage tag;
	// empty means no schedule knowledge. A link sees one or two tags, so a
	// slice scan beats hashing. got resets as each stage completes so
	// repeated replays of the same schedule keep working.
	hint []tagHint
	// carrier reports that the installed schedule sends data to this
	// peer, so a data packet will come along to carry the ack.
	carrier bool

	// m is the per-peer wire metrics block shared with the matching
	// sendLink.
	m *linkMetrics
}

func newRecvLink(peer int, m *linkMetrics) *recvLink {
	return &recvLink{peer: peer, m: m}
}

// sackBitmap summarizes the out-of-order stash relative to expected: bit i
// set means packet expected+1+i has been received. Receiver goroutine only.
func (l *recvLink) sackBitmap() uint64 {
	if l.pending == nil {
		return 0
	}
	var bm uint64
	for i := uint32(1); i < window; i++ {
		if l.pending[(l.expected+i)%window] != nil {
			bm |= 1 << (i - 1)
		}
	}
	return bm
}

// noteFrame records a delivered frame against the installed hint and
// reports whether it completed a hinted stage's inbound set from this
// peer. Called by the receiver goroutine with mu held.
func (l *recvLink) noteFrame(tag int) (completed bool) {
	for i := range l.hint {
		h := &l.hint[i]
		if h.tag != tag {
			continue
		}
		h.got++
		if h.got < h.want {
			return false
		}
		h.got = 0
		return true
	}
	return false
}

// resetHint drops the link's expectations; a peer absent from the next
// schedule stays unhinted (a patched topology may have dropped it).
func (l *recvLink) resetHint() {
	l.mu.Lock()
	l.hint = l.hint[:0]
	l.carrier = false
	l.mu.Unlock()
}

// expect adds frames to the hint entry for tag, creating it if needed.
func (l *recvLink) expect(tag, frames int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.hint {
		if l.hint[i].tag == tag {
			l.hint[i].want += frames
			return
		}
	}
	l.hint = append(l.hint, tagHint{tag: tag, want: frames})
}

// takeAck hands the link's cumulative ack to a departing datagram: the
// value for the wire, the ackDelay to report with it, and whether the ack
// tells the peer anything it was still owed. The debt is settled and the
// stage-completion mark consumed; the caller holds mu.
func (l *recvLink) takeAck(now int64) (cum, delay uint32, owed, stage bool) {
	cum, owed, stage = l.ackCum, l.owedSince != 0, l.stageComplete
	if owed {
		delay = ackDelayMicros(now - l.arrived)
	}
	l.lastAckSent = cum
	l.owedSince = 0
	l.stageComplete = false
	return cum, delay, owed, stage
}

// expectCarrier records that the schedule sends data to the peer.
func (l *recvLink) expectCarrier() {
	l.mu.Lock()
	l.carrier = true
	l.mu.Unlock()
}
