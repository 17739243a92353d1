package udpnet

import (
	goruntime "runtime"
	"time"

	"stfw/internal/msg"
)

// sendEntry is one datagram staged for the wire in a sender drain pass.
type sendEntry struct {
	buf []byte
	to  int
	sl  *sendLink // non-nil: data packet, seq valid, slot pinned (sending)
	seq uint32
	ack bool // buf is an ack scratch buffer, returned to the ring after
}

// senderLoop drains one rank's transmit queue: it seals and window-claims
// flush-pending links, revalidates resend and ack items, and pushes the
// whole pass to the wire as one batch (one or a few sendmmsg calls on the
// fast path). Window slots touched by the pass are pinned with the
// `sending` flag, so an ack landing mid-syscall defers the buffer release
// instead of yanking it out from under the kernel. On close it makes one
// last pass, so every frame Send accepted reaches the socket before the
// socket goes away.
//
// A pass with flush work only — no ack, no resend, not closing — yields
// the processor once before it drains when one of its links is shared: the
// link's last drain put frames of more than one Send on the wire. Its
// other callers (hier's leader link is fed by every rank of a node) are
// then likely runnable, and the yield lets them append to the open packet
// before it is sealed, so the link rides near-full datagrams. A link that
// carries one frame per stage never becomes shared and drains at once, as
// does every pass with an ack or a resend to send; no frame waits more
// than one yield.
func (w *World) senderLoop(rs *rankState) {
	defer w.senders.Done()
	q := &rs.out
	var items []outItem
	var flush []*sendLink
	var batch []sendEntry
	for {
		q.mu.Lock()
		for len(q.items) == 0 && len(q.flush) == 0 && !q.closed {
			q.cond.Wait()
		}
		closed := q.closed
		items, q.items = q.items, items[:0]
		flush, q.flush = q.flush, flush[:0]
		for _, sl := range flush {
			sl.inFlush = false
		}
		q.mu.Unlock()

		if closed {
			// A Send accepted just before Close may not have kicked its
			// link yet: the last pass drains every link.
			flush = rs.sl
		} else if len(items) == 0 && anyShared(flush) {
			goruntime.Gosched()
		}
		now := time.Now().UnixNano()
		batch = batch[:0]
		for _, it := range items {
			if it.rl != nil {
				batch = w.stageAck(rs, it.rl, now, batch)
				continue
			}
			batch = w.stageResend(rs, it.sl, it.seq, now, batch)
		}
		for _, sl := range flush {
			batch = w.drainLink(rs, sl, now, batch)
		}
		w.transmit(rs, batch)
		if closed {
			return
		}
	}
}

// stageAck puts the link's current ack on the wire as a stand-alone
// datagram — the vehicle of last resort, for an ack no data packet will
// carry in time or one that must report a reorder gap.
func (w *World) stageAck(rs *rankState, rl *recvLink, now int64, batch []sendEntry) []sendEntry {
	rl.mu.Lock()
	cum, delay, _, stage := rl.takeAck(now)
	bm, hinted := rl.ackBm, len(rl.hint) > 0
	rl.ackQueued = false
	rl.mu.Unlock()
	buf := buildAck(w.ring.Get(), rs.rank, cum, delay, bm)
	w.stats.ackDgrams.Add(1)
	countAck(rl, stage, !stage && hinted)
	return append(batch, sendEntry{buf: buf, to: rl.peer, ack: true})
}

// countAck records one departing ack by what made it leave: a completed
// hinted stage, or a liveness rule overriding an unfinished hint.
func countAck(rl *recvLink, stage, liveness bool) {
	rl.m.ackSent()
	switch {
	case stage:
		rl.m.stageAck()
	case liveness:
		rl.m.livenessAck()
	}
}

// stampLocked writes the fields a data packet learns as it leaves: its
// sequence number and the cumulative ack of the reverse link, so the
// packet doubles as the ack the peer is owed. A retransmission is stamped
// again and never carries a staler ack than the first transmission did.
// The caller holds the send link's mu.
func (w *World) stampLocked(rl *recvLink, buf []byte, seq uint32, now int64) {
	rl.mu.Lock()
	cum, delay, owed, stage := rl.takeAck(now)
	rl.mu.Unlock()
	stampSeqAck(buf, seq, true, cum, delay)
	if owed {
		w.stats.acksPiggybacked.Add(1)
		countAck(rl, stage, false)
	}
}

// stageResend revalidates a queued (link, seq) against the window: acked
// or reused slots are stale no-ops.
func (w *World) stageResend(rs *rankState, sl *sendLink, seq uint32, now int64, batch []sendEntry) []sendEntry {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	s := sl.slot(seq)
	s.queued = false
	if s.buf == nil || s.seq != seq || s.acked {
		return batch
	}
	s.sending = true
	s.resent = true // Karn: this seq's acks no longer yield RTT samples
	s.lastSend = now
	w.stampLocked(rs.rl[sl.peer], s.buf, seq, now)
	return append(batch, sendEntry{buf: s.buf, to: sl.peer, sl: sl, seq: seq})
}

// anyShared reports whether a link of the flush set is shared (see
// sendLink.shared). Sender goroutine only.
func anyShared(flush []*sendLink) bool {
	for _, sl := range flush {
		if sl.shared {
			return true
		}
	}
	return false
}

// drainLink seals the link's open packet and promotes backlog packets into
// window slots while credits remain.
func (w *World) drainLink(rs *rankState, sl *sendLink, now int64, batch []sendEntry) []sendEntry {
	promoted := false
	sl.mu.Lock()
	if sl.sends > 0 {
		sl.shared = sl.sends > 1
		sl.sends = 0
	}
	w.sealLocked(sl)
	for len(sl.backlog)-sl.backlogHead > 0 && sl.inFlight() < window {
		if sl.wnd == nil {
			sl.wnd = make([]pktSlot, window)
		}
		s := sl.slot(sl.nextSeq)
		if s.buf != nil || s.sending {
			break // release deferred behind an in-flight syscall
		}
		buf := sl.backlog[sl.backlogHead]
		sl.backlog[sl.backlogHead] = nil
		sl.backlogHead++
		seq := sl.nextSeq
		sl.nextSeq++
		w.stampLocked(rs.rl[sl.peer], buf, seq, now)
		*s = pktSlot{buf: buf, seq: seq, sending: true, lastSend: now}
		sl.m.pktSent(len(buf))
		batch = append(batch, sendEntry{buf: buf, to: sl.peer, sl: sl, seq: seq})
		promoted = true
	}
	if len(sl.backlog)-sl.backlogHead > 0 {
		if !sl.stalled {
			sl.stalled = true
			sl.m.windowStall()
		}
	} else {
		sl.stalled = false
	}
	sl.cond.Broadcast() // backlog space may have opened
	sl.mu.Unlock()
	if promoted {
		rs.arm(sl.peer) // packets in flight: the retransmit ticker watches
	}
	return batch
}

// transmit pushes a staged batch to the wire, applying loss injection,
// then unpins the touched window slots and completes deferred releases.
func (w *World) transmit(rs *rankState, batch []sendEntry) {
	if len(batch) == 0 {
		return
	}
	w.stats.batches.Add(1)
	w.stats.batchDgrams.Add(int64(len(batch)))

	wire := batch
	if w.opts.loss > 0 {
		wire = make([]sendEntry, 0, len(batch))
		for _, e := range batch {
			if rs.rng.Float64() < w.opts.loss {
				w.stats.injectedDrops.Add(1)
				continue // "sent" as far as the window is concerned
			}
			wire = append(wire, e)
		}
	}
	w.sendPackets(rs, wire)

	for _, e := range batch {
		if e.ack {
			w.ring.Put(e.buf)
			continue
		}
		if e.sl == nil {
			continue
		}
		e.sl.mu.Lock()
		s := e.sl.slot(e.seq)
		if s.seq == e.seq && s.sending {
			s.sending = false
			if s.releaseAfterSend {
				s.releaseAfterSend = false
				if s.buf != nil {
					w.ring.Put(s.buf)
					s.buf = nil
				}
			}
		}
		needKick := len(e.sl.backlog)-e.sl.backlogHead > 0 && e.sl.inFlight() < window
		e.sl.mu.Unlock()
		if needKick {
			rs.kick(e.sl)
		}
	}
}

// sendPackets writes a batch of datagrams, preferring the platform's
// batched syscall. Socket-level refusals (ENOBUFS, ICMP-driven errors
// during teardown) are treated as drops: the reliability layer recovers.
func (w *World) sendPackets(rs *rankState, batch []sendEntry) {
	if len(batch) == 0 {
		return
	}
	if rs.bio != nil {
		if errs := rs.bio.send(rs.rc, batch); errs > 0 {
			w.stats.sendErrs.Add(int64(errs))
		}
		return
	}
	for _, e := range batch {
		if _, err := rs.conn.WriteToUDP(e.buf, w.addrs[e.to]); err != nil {
			w.stats.sendErrs.Add(1)
		}
	}
}

// receiverLoop pulls datagram batches off one rank's socket (recvmmsg on
// the fast path), feeds them through the per-link sequencing machinery,
// and makes the batch-end ack decisions.
func (w *World) receiverLoop(rs *rankState) {
	defer w.wg.Done()
	bufs := make([][]byte, recvBatchMax)
	lens := make([]int, recvBatchMax)
	for i := range bufs {
		bufs[i] = w.ring.Get()[:maxDatagram]
	}
	var dirty []*recvLink
	for {
		n, err := w.recvPackets(rs, bufs, lens)
		if err != nil {
			for _, b := range bufs {
				w.ring.Put(b[:0])
			}
			return
		}
		dirty = dirty[:0]
		for i := 0; i < n; i++ {
			kept, rl := w.handleDgram(rs, bufs[i], lens[i])
			if kept {
				bufs[i] = w.ring.Get()[:maxDatagram]
			}
			if rl != nil && !rl.inDirty {
				rl.inDirty = true
				dirty = append(dirty, rl)
			}
		}
		now := time.Now().UnixNano()
		for _, rl := range dirty {
			rl.inDirty = false
			w.maybeAck(rs, rl, now)
		}
	}
}

// recvPackets fills bufs with inbound datagrams, blocking for at least
// one. The portable path reads a single datagram per call.
func (w *World) recvPackets(rs *rankState, bufs [][]byte, lens []int) (int, error) {
	if rs.bio != nil {
		return rs.bio.recv(rs.rc, bufs, lens)
	}
	n, _, err := rs.conn.ReadFromUDP(bufs[0])
	if err != nil {
		return 0, err
	}
	lens[0] = n
	return 1, nil
}

// handleDgram routes one datagram. It reports whether the buffer was
// retained (stashed out-of-order packet) and which receive link, if any,
// needs an ack decision at batch end.
func (w *World) handleDgram(rs *rankState, buf []byte, n int) (kept bool, dirty *recvLink) {
	h, body, err := parseDgram(buf[:n], w.size)
	if err != nil {
		w.stats.malformed.Add(1)
		return false, nil
	}
	var bm uint64
	if h.kind == kindAck {
		if bm, err = parseAck(body); err != nil {
			w.stats.malformed.Add(1)
			return false, nil
		}
	}
	// The ack applies before the packet is sequenced, whatever becomes of
	// the packet itself: in order, stashed or duplicate, it was the newest
	// word from the peer when it left.
	if h.hasAck {
		w.handleAck(rs, rs.sl[h.from], h.ack, h.ackDelay, bm)
	}
	if h.kind == kindAck {
		return false, nil
	}
	rl := rs.rl[h.from]
	switch d := h.seq - rl.expected; {
	case d == 0:
		rl.m.pktRecvd(n)
		w.processPacket(rs, rl, h, body)
		rl.expected++
		for rl.pending != nil {
			idx := rl.expected % window
			pb := rl.pending[idx]
			if pb == nil {
				break
			}
			rl.pending[idx] = nil
			ph, pbody, perr := parseDgram(pb, w.size)
			if perr == nil {
				w.processPacket(rs, rl, ph, pbody)
			}
			w.ring.Put(pb)
			rl.expected++
		}
	case d < window:
		if rl.pending == nil {
			rl.pending = make([][]byte, window)
		}
		idx := h.seq % window
		if rl.pending[idx] == nil {
			rl.pending[idx] = buf[:n]
			rl.m.pktRecvd(n)
			kept = true // gap: batch-end ack carries the bitmap
		} else {
			rl.m.dup()
			rl.sawDup = true
		}
	default:
		// Old duplicate (or far future, impossible from a correct peer):
		// the peer missed an ack, and re-acking lets it advance.
		rl.m.dup()
		rl.sawDup = true
	}
	return kept, rl
}

// processPacket walks the chunks of an in-sequence data packet, copying
// fragments into the frame under reassembly and delivering completed
// frames. Receiver goroutine only.
func (w *World) processPacket(rs *rankState, rl *recvLink, h dgramHeader, body []byte) {
	for k := 0; k < h.count; k++ {
		c, rest, err := nextChunk(body)
		if err != nil {
			w.stats.malformed.Add(1)
			return
		}
		body = rest
		if !w.deliverChunk(rs, rl, c) {
			w.stats.malformed.Add(1)
			return
		}
	}
	if len(body) != 0 {
		w.stats.malformed.Add(1)
	}
}

// deliverChunk applies one fragment. In-sequence processing means chunks
// arrive exactly as appended: sequential frame IDs, sequential offsets.
// Anything else is corruption and drops the rest of the packet.
func (w *World) deliverChunk(rs *rankState, rl *recvLink, c chunk) bool {
	if rl.cur == nil {
		if c.frameID != rl.nextFrameID || c.off != 0 {
			return false
		}
		rl.cur = msg.GetFrameLen(int(c.frameLen))
		rl.curGot = 0
		rl.curTag = c.tag
	} else if c.frameID != rl.nextFrameID || c.tag != rl.curTag || int(c.frameLen) != len(rl.cur) {
		return false
	}
	if int(c.off) != rl.curGot {
		return false
	}
	copy(rl.cur[c.off:], c.frag)
	rl.curGot += len(c.frag)
	if rl.curGot < len(rl.cur) {
		return true
	}
	payload := rl.cur
	rl.cur = nil
	rl.nextFrameID++
	rl.m.frameRecvd()
	if c.tag == ctrlEnter || c.tag == ctrlRelease {
		msg.PutFrame(payload)
		w.handleCtrl(rs, c.tag)
		return true
	}
	if rs.in.Push(rl.peer, c.tag, payload) != nil {
		msg.PutFrame(payload) // world closed
		return true
	}
	rl.mu.Lock()
	if rl.noteFrame(c.tag) {
		rl.stageComplete = true
	}
	rl.mu.Unlock()
	return true
}

// handleCtrl advances the wire barrier. The receiver goroutine only
// updates counters and wakes waiters — it never sends, so barrier
// progress can never deadlock against flow control.
func (w *World) handleCtrl(rs *rankState, tag int) {
	b := &rs.bar
	b.mu.Lock()
	if tag == ctrlEnter {
		b.enters++
	} else {
		b.releases++
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// maybeAck makes the batch-end ack decision for a link that saw traffic.
// One rule covers hinted and unhinted traffic. A stand-alone ack leaves at
// once when waiting would cost the peer: the link reports a reorder gap
// (the bitmap doubles as a fast-resend request), half the window is
// unacked, a duplicate arrived (the peer missed an ack), or a hinted stage
// completed on a link the schedule never sends data back on. Otherwise the
// ack is owed: it rides in the header of the next data packet to the peer,
// and the retransmit ticker sends it stand-alone once it has waited
// ackHoldMax.
func (w *World) maybeAck(rs *rankState, rl *recvLink, now int64) {
	bm := rl.sackBitmap()
	dup := rl.sawDup
	rl.sawDup = false
	rl.mu.Lock()
	newlyOwed := false
	if rl.expected != rl.ackCum {
		rl.ackCum, rl.arrived = rl.expected, now
		if rl.owedSince == 0 {
			rl.owedSince = now
			newlyOwed = true
		}
	}
	rl.ackBm = bm
	send := bm != 0 || dup ||
		rl.ackCum-rl.lastAckSent >= window/2 ||
		(rl.stageComplete && !rl.carrier)
	queue := send && !rl.ackQueued
	if queue {
		rl.ackQueued = true
	}
	rl.mu.Unlock()
	switch {
	case queue:
		rs.enqueue(outItem{rl: rl})
	case !send:
		rl.m.ackSuppressed()
		if newlyOwed {
			rs.arm(rl.peer) // bounds the wait for a carrier
		}
	}
}

// handleAck applies a cumulative ack + selective bitmap to a send link,
// whichever vehicle brought it (bm is zero for an ack riding a data
// packet): the acked prefix frees window slots (and their credits),
// selective acks release buffers early, and a reported gap triggers fast
// resend of the missing packets. ackDelay is the hold time the receiver
// reported, in microseconds.
func (w *World) handleAck(rs *rankState, sl *sendLink, cum, ackDelay uint32, bm uint64) {
	now := time.Now().UnixNano()
	var resend []uint32
	sl.mu.Lock()
	if adv := int32(cum - sl.sndUna); adv > 0 {
		if uint32(adv) > sl.inFlight() {
			sl.mu.Unlock() // acking unsent packets: corrupt, ignore
			return
		}
		// One RTT sample per ack, from the newest packet it covers, less
		// the time the receiver deliberately sat on the ack. Karn: never
		// from a packet that was resent (the ack could answer either
		// transmission) or already selectively acked (a stale round trip).
		if s := sl.slot(cum - 1); s.seq == cum-1 && s.buf != nil && !s.resent && !s.acked {
			sl.m.rttSample(now-s.lastSend, int64(ackDelay)*1000)
		}
		for seq := sl.sndUna; seq != cum; seq++ {
			w.freeSlotLocked(sl, seq)
		}
		sl.sndUna = cum
	}
	if bm != 0 {
		for i := 0; i < 64; i++ {
			if bm&(1<<uint(i)) == 0 {
				continue
			}
			seq := cum + 1 + uint32(i)
			if seq-sl.sndUna >= sl.inFlight() {
				continue
			}
			s := sl.slot(seq)
			if s.seq == seq && s.buf != nil && !s.acked {
				s.acked = true
				sl.m.sackRepair()
				if s.sending {
					s.releaseAfterSend = true
				} else {
					w.ring.Put(s.buf)
					s.buf = nil
				}
			}
		}
		// The bitmap reports a gap: resend unacked packets below the
		// highest selectively-acked sequence without waiting for the RTO.
		high := cum + 1
		for i := 63; i >= 0; i-- {
			if bm&(1<<uint(i)) != 0 {
				high = cum + 2 + uint32(i)
				break
			}
		}
		for seq := sl.sndUna; int32(seq-high) < 0 && seq != sl.nextSeq; seq++ {
			s := sl.slot(seq)
			if s.seq != seq || s.buf == nil || s.acked || s.queued || s.sending {
				continue
			}
			if now-s.lastSend < int64(fastResendGap) {
				continue
			}
			s.queued = true
			resend = append(resend, seq)
		}
	}
	hasBacklog := len(sl.backlog)-sl.backlogHead > 0 || sl.open != nil
	sl.cond.Broadcast()
	sl.mu.Unlock()
	for _, seq := range resend {
		sl.m.resend(false) // gap-triggered
		rs.enqueue(outItem{sl: sl, seq: seq})
	}
	if hasBacklog {
		rs.kick(sl)
	}
}

// freeSlotLocked releases the window slot for seq after the cumulative
// ack passed it; the caller holds sl.mu.
func (w *World) freeSlotLocked(sl *sendLink, seq uint32) {
	s := sl.slot(seq)
	if s.seq != seq {
		return
	}
	if s.buf != nil {
		if s.sending {
			s.releaseAfterSend = true
			return // slot stays pinned until the syscall returns
		}
		w.ring.Put(s.buf)
		s.buf = nil
	}
	s.acked = false
	s.queued = false
	s.resent = false
}

// retransmitLoop is the world's one timer. Every timerTick it visits the
// links that have packets in flight or owe an ack — links arm themselves
// when either becomes true, and drop off the watch list once idle — and
// queues packets past their RTO for resend and acks past ackHoldMax for a
// stand-alone datagram.
func (w *World) retransmitLoop() {
	defer w.wg.Done()
	t := time.NewTicker(timerTick)
	defer t.Stop()
	watch := make([][]int, len(w.local)) // per local rank: armed peers
	for {
		select {
		case <-w.closed:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		for i, rs := range w.local {
			rs.tmu.Lock()
			watch[i] = append(watch[i], rs.newlyArmed...)
			rs.newlyArmed = rs.newlyArmed[:0]
			rs.tmu.Unlock()
			keep := watch[i][:0]
			for _, p := range watch[i] {
				// Disarm before looking: a link that becomes busy after
				// the look re-arms itself, one that was busy at the look
				// is re-armed here, and the CAS keeps it on one list.
				rs.armed[p].Store(false)
				inFlight := w.resendExpired(rs, rs.sl[p], now)
				owed := w.ackOverdue(rs, rs.rl[p], now)
				if (inFlight || owed) && rs.armed[p].CompareAndSwap(false, true) {
					keep = append(keep, p)
				}
			}
			watch[i] = keep
		}
	}
}

// resendExpired queues the link's packets that have gone unacked for an
// RTO and reports whether any packet is still in flight.
func (w *World) resendExpired(rs *rankState, sl *sendLink, now int64) (inFlight bool) {
	var resend []uint32
	sl.mu.Lock()
	for seq := sl.sndUna; seq != sl.nextSeq; seq++ {
		s := sl.slot(seq)
		if s.seq != seq || s.buf == nil || s.acked || s.queued || s.sending {
			continue
		}
		if now-s.lastSend < int64(rto) {
			continue
		}
		s.queued = true
		resend = append(resend, seq)
	}
	inFlight = sl.inFlight() > 0
	sl.mu.Unlock()
	for _, seq := range resend {
		sl.m.resend(true) // RTO scan
		rs.enqueue(outItem{sl: sl, seq: seq})
	}
	return inFlight
}

// ackOverdue queues a stand-alone ack once the link has owed one for
// ackHoldMax with no data packet to carry it, and reports whether an ack
// is still owed.
func (w *World) ackOverdue(rs *rankState, rl *recvLink, now int64) (owed bool) {
	rl.mu.Lock()
	owed = rl.owedSince != 0
	queue := owed && now-rl.owedSince >= int64(ackHoldMax) && !rl.ackQueued
	if queue {
		rl.ackQueued = true
	}
	rl.mu.Unlock()
	if queue {
		rs.enqueue(outItem{rl: rl})
	}
	return owed
}
