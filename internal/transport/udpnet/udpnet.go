// Package udpnet implements the runtime.Comm interface over UDP sockets
// with schedule-driven batching and zero-speculation flow control. It is
// the transport-level half of the paper's thesis: once communication is
// regularized into a schedule of per-stage neighbor frames, the transport
// no longer has to speculate — it knows exactly which frames a stage will
// move, so it can coalesce them into large datagrams, batch them through
// single syscalls (sendmmsg/recvmmsg where available), and acknowledge at
// stage completion instead of per packet.
//
// Reliability: UDP drops, duplicates, and reorders, so each directed link
// carries its own sequence-numbered packet stream under a fixed sliding
// window (credits). Receivers process packets strictly in sequence order,
// stash out-of-order arrivals, and report progress through cumulative acks
// with a selective-ack bitmap; senders retransmit on timeout or on a gap
// report. In-order packet processing plus per-link frame counters give the
// Comm contract's per-(sender, receiver, tag) FIFO for free. A reassembled
// frame is delivered into the receiving rank's runtime.Matcher.
//
// A frame joins its link's open packet and leaves when the rank's sender
// goroutine next drains the link. Before draining a link whose last drain
// carried frames of more than one Send, the sender yields once, so a link
// several goroutines feed (hier's leader link) rides near-full datagrams;
// a link fed one frame per stage drains at once (senderLoop).
//
// The steady state is one datagram per scheduled frame. Every data packet
// carries the cumulative ack of the reverse link in its header, so on a
// link the schedule uses in both directions no ack datagram is ever sent:
// an ack is owed until the next data packet to that peer takes it along.
// A stand-alone ack leaves only when waiting would hurt — a reorder gap,
// half the window unacked, a duplicate (the peer missed an ack), a hinted
// stage completing on a link runtime.TrafficHinter says carries no data
// back — or when the ack has been owed for ackHoldMax and the retransmit
// ticker gives up on a carrier. Hints are advisory: stale or missing ones
// cost at most that hold, never correctness.
//
// All packet buffers come from a preallocated PacketRing and per-link
// window state is allocated when a link first carries a packet, so the
// steady state of a long exchange loop allocates nothing on the packet
// path and a K-rank world does not pay for the K² links it never uses.
//
// A World may own every rank (NewWorld, single-process loopback) or a
// subset (NewGroup, multi-process runs driven by an external launcher
// that distributes sockets and addresses). The barrier runs over the
// reliable data path itself using reserved control tags, so it works
// across processes.
package udpnet

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"stfw/internal/msg"
	"stfw/internal/runtime"
)

const (
	// ackHoldMax bounds how long an ack may wait for a data packet to
	// carry it before the retransmit ticker sends it stand-alone. Long
	// enough that one iteration of a latency-bound solver over a K=64
	// loopback world (a few milliseconds) fits inside it, so a two-way
	// scheduled link never needs an ack datagram.
	ackHoldMax = 8 * time.Millisecond
	// timerTick is the retransmit ticker's period: an overdue ack or
	// packet waits at most this much longer.
	timerTick = 4 * time.Millisecond
	// rto is the retransmission timeout for unacked packets. It must
	// exceed ackHoldMax + timerTick, the longest a healthy receiver sits on
	// an ack, or held acks would read as loss (TestTimerOrdering); the
	// slack beyond that absorbs the scheduling delay between the ticker
	// queueing an overdue ack and the peer applying it when every core is
	// busy (a K=64 world's start-up).
	rto = 30 * time.Millisecond
	// fastResendGap suppresses duplicate gap-triggered resends from
	// consecutive acks carrying the same bitmap.
	fastResendGap = 2 * time.Millisecond

	// recvBatchMax is the recvmmsg batch width.
	recvBatchMax = 16
	// sendBatchMax is the sendmmsg batch width.
	sendBatchMax = 32

	// ringHeadroom is the packet ring's preallocation beyond the receive
	// buffers every local rank pins: open packets and window slots of the
	// first exchanges. A larger working set is minted on demand and kept.
	ringHeadroom = 256
)

// Control tags reserved for the wire barrier. Application tags must stay
// below this range.
const (
	ctrlEnter   = 0x7fffff00
	ctrlRelease = 0x7fffff01
)

// Option configures a World.
type Option func(*options)

type options struct {
	loss      float64
	seed      int64
	noBatchIO bool
}

// WithLoss injects packet loss: every outbound datagram (data and ack) is
// independently dropped with probability p before the socket write, from a
// per-rank PRNG derived from seed. The reliability layer must recover;
// tests use this to prove resend correctness.
func WithLoss(p float64, seed int64) Option {
	return func(o *options) { o.loss, o.seed = p, seed }
}

// WithoutBatchIO forces the portable one-datagram-per-syscall path even
// where sendmmsg/recvmmsg are available, so both code paths stay tested.
func WithoutBatchIO() Option {
	return func(o *options) { o.noBatchIO = true }
}

// Stats aggregates a world's transport counters across its local ranks.
type Stats struct {
	// Batches counts sender drain passes that hit the wire; BatchDgrams
	// counts the datagrams they carried. BatchDgrams/Batches is the
	// realized coalescing factor.
	Batches, BatchDgrams int64
	// DataSent counts first transmissions of data packets; Resends counts
	// retransmissions (timeout or gap-triggered).
	DataSent, Resends int64
	// AcksSent counts acks that left, AcksSuppressed batch-end decisions
	// that left the ack owed; StageAcks is the subset of sent acks that
	// reported a completed hinted stage (proof the schedule-driven path is
	// active). An ack is classified once, as it leaves, whichever vehicle
	// carries it.
	AcksSent, AcksSuppressed, StageAcks int64
	// AckDgrams counts stand-alone ack datagrams written; AcksPiggybacked
	// counts owed acks that left in a data packet's header instead. They
	// sum to AcksSent.
	AckDgrams, AcksPiggybacked int64
	// CreditStalls counts drain passes that left sealed packets queued
	// because the peer's window was exhausted.
	CreditStalls int64
	// Dups counts duplicate or out-of-window packets dropped; Malformed
	// counts datagrams that failed to parse.
	Dups, Malformed int64
	// InjectedDrops counts packets discarded by WithLoss; SendErrs counts
	// datagrams the socket refused (treated as drops, recovered by
	// resend).
	InjectedDrops, SendErrs int64
}

// worldStats counts the events that belong to no one link; per-link events
// live in that link's linkMetrics block only, and Stats sums them.
type worldStats struct {
	batches, batchDgrams               atomic.Int64
	ackDgrams, acksPiggybacked         atomic.Int64
	malformed, injectedDrops, sendErrs atomic.Int64
}

// outItem is one entry in a rank's transmit queue: either a data packet
// identified by (link, seq) — revalidated against the window under the
// link lock at send time, so a stale entry for an acked packet is a no-op
// — or an ack flush request for a receive link.
type outItem struct {
	sl  *sendLink
	seq uint32
	rl  *recvLink
}

// outQueue feeds a rank's sender goroutine.
//
// Lock order: sendLink.mu / recvLink.mu before outQueue.mu. The sender
// copies the queue out under out.mu and releases it before touching any
// link, so enqueue paths may hold a link lock.
type outQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []outItem
	flush  []*sendLink
	closed bool
}

// barState is one local rank's wire-barrier progress. Rank 0 coordinates:
// every other rank sends a ctrlEnter frame and waits for a ctrlRelease;
// rank 0 waits for size-1 enters per phase, then its own application
// goroutine sends the releases (the receiver goroutine never sends, so it
// can never deadlock on flow control).
type barState struct {
	mu       sync.Mutex
	cond     *sync.Cond
	enters   int // rank 0: total ctrlEnter frames received
	releases int // others: total ctrlRelease frames received
	phase    int // barriers completed by this rank
}

// rankState is everything one local rank owns: its socket, per-peer link
// state, frame matcher, transmit queue, and barrier progress.
type rankState struct {
	rank int
	conn *net.UDPConn
	rc   syscall.RawConn
	bio  *batchIO // nil selects the portable per-datagram path

	sl []*sendLink
	rl []*recvLink
	in *runtime.Matcher // completed frames, pushed by the receiver goroutine
	// lm holds the per-peer wire metrics blocks (peer-indexed, shared by
	// sl[p] and rl[p]).
	lm []*linkMetrics

	bar barState
	out outQueue
	rng *rand.Rand // sender-goroutine-only loss injection

	// armed[p] is set while peer p is on the retransmit ticker's watch
	// list (or queued for it in newlyArmed): its send link has packets in
	// flight or its receive link owes an ack.
	armed      []atomic.Bool
	tmu        sync.Mutex
	newlyArmed []int
}

// newRankState builds a rank's link table, matcher and queues; the caller
// attaches the socket.
func newRankState(rank, size int, o options) *rankState {
	rs := &rankState{
		rank:  rank,
		sl:    make([]*sendLink, size),
		rl:    make([]*recvLink, size),
		in:    runtime.NewMatcher(size, 0),
		lm:    make([]*linkMetrics, size),
		rng:   rand.New(rand.NewSource(o.seed + int64(rank)*7919)),
		armed: make([]atomic.Bool, size),
	}
	for p := 0; p < size; p++ {
		rs.lm[p] = &linkMetrics{}
		rs.sl[p] = newSendLink(p, rs.lm[p])
		rs.rl[p] = newRecvLink(p, rs.lm[p])
	}
	rs.out.cond = sync.NewCond(&rs.out.mu)
	rs.bar.cond = sync.NewCond(&rs.bar.mu)
	return rs
}

// arm puts peer on the retransmit ticker's watch list if it is not there.
func (rs *rankState) arm(peer int) {
	if rs.armed[peer].Load() || !rs.armed[peer].CompareAndSwap(false, true) {
		return
	}
	rs.tmu.Lock()
	rs.newlyArmed = append(rs.newlyArmed, peer)
	rs.tmu.Unlock()
}

// World is a set of UDP-connected ranks, all or some of them local.
type World struct {
	size   int
	local  []*rankState
	byRank []*rankState // index rank → state, nil for remote ranks
	addrs  []*net.UDPAddr
	ring   *PacketRing
	opts   options

	stats worldStats

	closed    chan struct{}
	closeOnce sync.Once
	senders   sync.WaitGroup // sender goroutines: drained before sockets close
	wg        sync.WaitGroup // receiver goroutines and the retransmit ticker
}

// GroupConfig describes one process's share of a multi-process world. The
// launcher binds one socket per rank, distributes them (e.g. via
// inherited file descriptors), and tells every process the full address
// list.
type GroupConfig struct {
	// Size is the world size K.
	Size int
	// Local lists the ranks this process runs.
	Local []int
	// Conns holds the bound sockets for the local ranks, parallel to
	// Local. The World takes ownership, sizes their receive buffers to a
	// window (recvBufBytes) and closes them.
	Conns []*net.UDPConn
	// Addrs holds the UDP address of every rank, indexed by rank.
	Addrs []string
}

// Bind binds loopback UDP sockets for n ranks and returns them with their
// addresses — the launcher-side helper for assembling GroupConfigs.
func Bind(n int) ([]*net.UDPConn, []string, error) {
	conns := make([]*net.UDPConn, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, nil, fmt.Errorf("udpnet: bind rank %d: %w", i, err)
		}
		conns = append(conns, c)
		addrs = append(addrs, c.LocalAddr().String())
	}
	return conns, addrs, nil
}

// NewWorld creates a single-process world: all ranks local, each behind
// its own loopback UDP socket.
func NewWorld(size int, opts ...Option) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("udpnet: world size %d < 1", size)
	}
	conns, addrs, err := Bind(size)
	if err != nil {
		return nil, err
	}
	local := make([]int, size)
	for i := range local {
		local[i] = i
	}
	return NewGroup(GroupConfig{Size: size, Local: local, Conns: conns, Addrs: addrs}, opts...)
}

// NewGroup creates a world owning only the configured local ranks.
func NewGroup(cfg GroupConfig, opts ...Option) (*World, error) {
	if cfg.Size < 1 {
		return nil, fmt.Errorf("udpnet: world size %d < 1", cfg.Size)
	}
	if len(cfg.Local) != len(cfg.Conns) {
		return nil, fmt.Errorf("udpnet: %d local ranks, %d conns", len(cfg.Local), len(cfg.Conns))
	}
	if len(cfg.Addrs) != cfg.Size {
		return nil, fmt.Errorf("udpnet: %d addrs for world size %d", len(cfg.Addrs), cfg.Size)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	w := &World{
		size:   cfg.Size,
		byRank: make([]*rankState, cfg.Size),
		addrs:  make([]*net.UDPAddr, cfg.Size),
		// Every local rank's receiver pins recvBatchMax buffers for its
		// whole life; the rest is working-set headroom.
		ring:   NewPacketRing(recvBatchMax*len(cfg.Local)+ringHeadroom, maxDatagram),
		opts:   o,
		closed: make(chan struct{}),
	}
	for r, s := range cfg.Addrs {
		a, err := net.ResolveUDPAddr("udp", s)
		if err != nil {
			return nil, fmt.Errorf("udpnet: rank %d addr %q: %w", r, s, err)
		}
		w.addrs[r] = a
	}
	for i, r := range cfg.Local {
		if r < 0 || r >= cfg.Size {
			return nil, fmt.Errorf("udpnet: local rank %d out of [0,%d)", r, cfg.Size)
		}
		if w.byRank[r] != nil {
			return nil, fmt.Errorf("udpnet: local rank %d listed twice", r)
		}
		if err := cfg.Conns[i].SetReadBuffer(recvBufBytes); err != nil {
			return nil, fmt.Errorf("udpnet: rank %d receive buffer: %w", r, err)
		}
		rc, err := cfg.Conns[i].SyscallConn()
		if err != nil {
			return nil, fmt.Errorf("udpnet: rank %d raw conn: %w", r, err)
		}
		// Batch scratch (iovecs, mmsg headers) is per rank: each rank's
		// sender and receiver goroutines own disjoint halves of it.
		var bio *batchIO
		if !o.noBatchIO {
			bio = newBatchIO(w.addrs)
		}
		rs := newRankState(r, cfg.Size, o)
		rs.conn, rs.rc, rs.bio = cfg.Conns[i], rc, bio
		w.byRank[r] = rs
		w.local = append(w.local, rs)
	}
	for _, rs := range w.local {
		w.senders.Add(1)
		go w.senderLoop(rs)
		w.wg.Add(1)
		go w.receiverLoop(rs)
	}
	w.wg.Add(1)
	go w.retransmitLoop()
	return w, nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Stats returns a snapshot of the world's transport counters: the local
// ranks' per-link blocks summed, plus the counters no link owns.
func (w *World) Stats() Stats {
	var l runtime.LinkStats
	for _, rs := range w.local {
		for peer, m := range rs.lm {
			l.Add(m.snapshot(peer))
		}
	}
	return Stats{
		Batches:         w.stats.batches.Load(),
		BatchDgrams:     w.stats.batchDgrams.Load(),
		DataSent:        l.PktsSent,
		Resends:         l.Resends(),
		AcksSent:        l.AcksSent,
		AcksSuppressed:  l.AcksSuppressed,
		StageAcks:       l.StageAcks,
		AckDgrams:       w.stats.ackDgrams.Load(),
		AcksPiggybacked: w.stats.acksPiggybacked.Load(),
		CreditStalls:    l.WindowStalls,
		Dups:            l.Dups,
		Malformed:       w.stats.malformed.Load(),
		InjectedDrops:   w.stats.injectedDrops.Load(),
		SendErrs:        w.stats.sendErrs.Load(),
	}
}

// Ring exposes the world's packet ring for allocation-behaviour tests.
func (w *World) Ring() *PacketRing { return w.ring }

func (w *World) isClosed() bool {
	select {
	case <-w.closed:
		return true
	default:
		return false
	}
}

// Close shuts the world down: senders flush what Send already accepted
// and exit (a process that returns from its last Barrier and exits must
// not strand the frames that release its peers), sockets close
// (unblocking the receiver goroutines), queues and waiters wake,
// goroutines drain, and retained packet buffers return to the ring.
func (w *World) Close() {
	w.closeOnce.Do(func() { close(w.closed) })
	for _, rs := range w.local {
		rs.out.mu.Lock()
		rs.out.closed = true
		rs.out.cond.Broadcast()
		rs.out.mu.Unlock()
	}
	w.senders.Wait()
	for _, rs := range w.local {
		rs.conn.Close()
		rs.in.Close(runtime.ErrClosed)
		rs.bar.mu.Lock()
		rs.bar.cond.Broadcast()
		rs.bar.mu.Unlock()
		for _, sl := range rs.sl {
			sl.mu.Lock()
			sl.cond.Broadcast()
			sl.mu.Unlock()
		}
	}
	w.wg.Wait()
	// The world's goroutines are gone; sweep retained buffers back to their
	// pools so ring accounting stays meaningful across worlds. A Send racing
	// Close still takes its link's lock before it finds the world closed,
	// so the send side is swept under it.
	for _, rs := range w.local {
		for _, sl := range rs.sl {
			sl.mu.Lock()
			if sl.open != nil {
				w.ring.Put(sl.open)
				sl.open = nil
			}
			for i := sl.backlogHead; i < len(sl.backlog); i++ {
				w.ring.Put(sl.backlog[i])
			}
			sl.backlog, sl.backlogHead = nil, 0
			for i := range sl.wnd {
				if b := sl.wnd[i].buf; b != nil {
					w.ring.Put(b)
					sl.wnd[i].buf = nil
				}
			}
			sl.mu.Unlock()
		}
		for _, rl := range rs.rl {
			for i := range rl.pending {
				if b := rl.pending[i]; b != nil {
					w.ring.Put(b)
					rl.pending[i] = nil
				}
			}
			if rl.cur != nil {
				msg.PutFrame(rl.cur)
				rl.cur = nil
			}
		}
	}
}

// Comms returns one communicator per local rank, in rank order. For a
// NewWorld this is the full world (index = rank).
func (w *World) Comms() []runtime.Comm {
	cs := make([]runtime.Comm, len(w.local))
	for i, rs := range w.local {
		cs[i] = &comm{w: w, rs: rs}
	}
	return cs
}

// Run executes fn on every local rank and closes the world afterwards.
func (w *World) Run(fn runtime.RankFunc) error {
	defer w.Close()
	return runtime.Run(w.Comms(), fn)
}

// kick registers sl in the sender's flush set and wakes the sender.
func (rs *rankState) kick(sl *sendLink) {
	q := &rs.out
	q.mu.Lock()
	if !sl.inFlush {
		sl.inFlush = true
		q.flush = append(q.flush, sl)
	}
	q.cond.Signal()
	q.mu.Unlock()
}

// enqueue adds a transmit item and wakes the sender.
func (rs *rankState) enqueue(it outItem) {
	q := &rs.out
	q.mu.Lock()
	q.items = append(q.items, it)
	q.cond.Signal()
	q.mu.Unlock()
}

type comm struct {
	w  *World
	rs *rankState

	// Steady-state hint dedup: a repeated HintTraffic with the same
	// backing slice (the cached schedule summary) is a no-op.
	lastHintPtr *runtime.StageTraffic
	lastHintLen int
}

func (c *comm) Rank() int { return c.rs.rank }
func (c *comm) Size() int { return c.w.size }

// SendRetains reports false: the payload is copied into packet buffers
// before Send returns, so the caller may reuse it.
func (c *comm) SendRetains() bool { return false }

// ReservedTags implements runtime.TagReserver: the wire barrier's control
// frames (ctrlEnter, ctrlRelease) travel on the same tagged-frame plane as
// application traffic, so the range is declared for composite transports
// to check against their application tag span.
func (c *comm) ReservedTags() (lo, hi int) { return ctrlEnter, ctrlRelease + 1 }

func (c *comm) Send(to, tag int, payload []byte) error {
	if to < 0 || to >= c.w.size {
		return fmt.Errorf("udpnet: send to rank %d out of range [0,%d)", to, c.w.size)
	}
	return c.w.sendFrame(c.rs, to, tag, payload)
}

func (c *comm) Recv(from, tag int) ([]byte, error) {
	payload, err := c.rs.in.Recv(from, tag)
	if err != nil {
		return nil, fmt.Errorf("udpnet: rank %d recv from %d: %w", c.rs.rank, from, err)
	}
	return payload, nil
}

// RecvAnyOf implements runtime.AnyReceiver on the rank's matcher.
func (c *comm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	sender, payload, err := c.rs.in.RecvAnyOf(tag, from)
	if err != nil {
		return -1, nil, fmt.Errorf("udpnet: rank %d recv any of %v: %w", c.rs.rank, from, err)
	}
	return sender, payload, nil
}

// HintTraffic implements runtime.TrafficHinter: the schedule's per-stage
// traffic summary becomes per-link expected frame counts per tag (Recvs)
// and the knowledge of which peers data will flow back to (Sends), so the
// receive side knows when a stage's inbound set is complete and whether a
// data packet will come along to carry the ack. A repeated hint with the
// same backing slice is recognized and skipped, keeping the compiled
// replay's steady state allocation-free.
func (c *comm) HintTraffic(stages []runtime.StageTraffic) {
	if len(stages) == 0 {
		return
	}
	if len(stages) == c.lastHintLen && &stages[0] == c.lastHintPtr {
		return
	}
	c.lastHintPtr, c.lastHintLen = &stages[0], len(stages)
	rl := c.rs.rl
	for _, l := range rl {
		l.resetHint()
	}
	inWorld := func(t runtime.PeerTraffic) bool {
		return t.Peer >= 0 && t.Peer < c.w.size && t.Frames > 0
	}
	for _, st := range stages {
		for _, r := range st.Recvs {
			if inWorld(r) {
				rl[r.Peer].expect(st.Tag, r.Frames)
			}
		}
		for _, s := range st.Sends {
			if inWorld(s) {
				rl[s.Peer].expectCarrier()
			}
		}
	}
}

func (c *comm) Barrier() error {
	w, rs := c.w, c.rs
	if w.size == 1 {
		return nil
	}
	b := &rs.bar
	if rs.rank == 0 {
		b.mu.Lock()
		b.phase++
		need := b.phase * (w.size - 1)
		for b.enters < need && !w.isClosed() {
			b.cond.Wait()
		}
		closed := w.isClosed()
		b.mu.Unlock()
		if closed {
			return fmt.Errorf("udpnet: world closed in barrier")
		}
		// The coordinator's own application goroutine sends the releases,
		// so flow-control stalls here can never wedge the receiver.
		for r := 1; r < w.size; r++ {
			if err := w.sendFrame(rs, r, ctrlRelease, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := w.sendFrame(rs, 0, ctrlEnter, nil); err != nil {
		return err
	}
	b.mu.Lock()
	b.phase++
	for b.releases < b.phase && !w.isClosed() {
		b.cond.Wait()
	}
	closed := w.isClosed()
	b.mu.Unlock()
	if closed {
		return fmt.Errorf("udpnet: world closed in barrier")
	}
	return nil
}

// sendFrame fragments one frame into the link's open packet, sealing full
// packets into the backlog. Consecutive frames to the same peer coalesce
// into one datagram until the sender goroutine drains the link, which it
// puts off by one yield on a link several callers feed (senderLoop).
// Blocks for backlog space (the bounded-memory equivalent of a full TCP
// socket buffer); concurrent Sends on the link wait until a frame that
// stalled there is complete.
func (w *World) sendFrame(rs *rankState, to, tag int, payload []byte) error {
	sl := rs.sl[to]
	frameLen := len(payload)
	sl.mu.Lock()
	for sl.framing {
		if w.isClosed() {
			sl.mu.Unlock()
			return fmt.Errorf("udpnet: world closed")
		}
		sl.cond.Wait()
	}
	fid := sl.nextFrameID
	sl.nextFrameID++
	off := 0
	for first := true; first || off < frameLen; first = false {
		for len(sl.backlog)-sl.backlogHead >= backlogMax {
			if w.isClosed() {
				sl.mu.Unlock()
				return fmt.Errorf("udpnet: world closed")
			}
			sl.framing = true
			sl.cond.Wait()
		}
		if w.isClosed() {
			sl.mu.Unlock()
			return fmt.Errorf("udpnet: world closed")
		}
		if sl.open == nil {
			b := w.ring.Get()[:dgramHdrLen]
			putDgramHeader(b, dgramHeader{kind: kindData, from: rs.rank})
			sl.open = b
			sl.openCount = 0
		}
		space := maxDatagram - len(sl.open) - chunkHdrLen
		rem := frameLen - off
		if space <= 0 || (space < rem && space < 256) {
			// No room, or only a sliver while more remains: seal and
			// start a fresh packet with full fragment space.
			w.sealLocked(sl)
			first = true // preserve the one-chunk guarantee for empty frames
			continue
		}
		frag := rem
		if frag > space {
			frag = space
		}
		sl.open = appendChunk(sl.open, tag, fid, uint32(frameLen), uint32(off), payload[off:off+frag])
		sl.openCount++
		binary.LittleEndian.PutUint16(sl.open[2:], uint16(sl.openCount))
		off += frag
		if maxDatagram-len(sl.open) < chunkHdrLen+64 {
			w.sealLocked(sl)
		}
	}
	sl.sends++
	sl.m.frameSent()
	if sl.framing {
		sl.framing = false
		sl.cond.Broadcast()
	}
	sl.mu.Unlock()
	rs.kick(sl)
	return nil
}

// sealLocked moves the open packet into the backlog; the caller holds
// sl.mu.
func (w *World) sealLocked(sl *sendLink) {
	if sl.open == nil {
		return
	}
	if sl.backlogHead == len(sl.backlog) {
		sl.backlog = sl.backlog[:0]
		sl.backlogHead = 0
	}
	sl.backlog = append(sl.backlog, sl.open)
	sl.open = nil
	sl.openCount = 0
	sl.m.noteBacklog(len(sl.backlog) - sl.backlogHead)
}
