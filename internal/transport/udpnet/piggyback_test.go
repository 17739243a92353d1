package udpnet

import (
	"bytes"
	"fmt"
	"math"
	goruntime "runtime"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/vpt"
)

// TestWireABI pins the wire layout byte for byte: one data datagram
// (header with a piggybacked ack + one chunk) and one stand-alone ack. A
// layout change must show up here as a deliberate diff.
func TestWireABI(t *testing.T) {
	data := buildDataPacketHdr(
		dgramHeader{kind: kindData, from: 2, seq: 7, hasAck: true, ack: 5, ackDelay: 300},
		[]chunk{{tag: 9, frameID: 3, frameLen: 4, off: 0, frag: []byte("abcd")}})
	wantData := []byte{
		0x01, 0x01, 0x01, 0x00, // kind data, flagAck, 1 chunk
		0x02, 0x00, 0x00, 0x00, // from 2
		0x07, 0x00, 0x00, 0x00, // seq 7
		0x05, 0x00, 0x00, 0x00, // ack 5
		0x2c, 0x01, 0x00, 0x00, // ackDelay 300 us
		0x09, 0x00, 0x00, 0x00, // tag 9
		0x03, 0x00, 0x00, 0x00, // frameID 3
		0x04, 0x00, 0x00, 0x00, // frameLen 4
		0x00, 0x00, 0x00, 0x00, // off 0
		0x04, 0x00, 0x00, 0x00, // fragLen 4
		'a', 'b', 'c', 'd',
	}
	if !bytes.Equal(data, wantData) {
		t.Errorf("data datagram\n got % x\nwant % x", data, wantData)
	}
	ack := buildAck(make([]byte, 0, maxDatagram), 3, 0x0102, math.MaxUint32, 0x8000000000000005)
	wantAck := []byte{
		0x02, 0x01, 0x00, 0x00, // kind ack, flagAck, no chunks
		0x03, 0x00, 0x00, 0x00, // from 3
		0x00, 0x00, 0x00, 0x00, // seq unused
		0x02, 0x01, 0x00, 0x00, // ack 0x0102
		0xff, 0xff, 0xff, 0xff, // ackDelay saturated
		0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // sack bitmap
	}
	if !bytes.Equal(ack, wantAck) {
		t.Errorf("ack datagram\n got % x\nwant % x", ack, wantAck)
	}
	if got := ackDelayMicros(int64(math.MaxUint32+1) * 1000); got != math.MaxUint32 {
		t.Errorf("ackDelayMicros does not saturate: %d", got)
	}
	if got := ackDelayMicros(-5); got != 0 {
		t.Errorf("ackDelayMicros(-5) = %d, want 0", got)
	}
}

// TestTimerOrdering pins the one relation the three timer constants must
// keep: the longest a healthy receiver sits on an ack (the hold plus one
// tick of the timer that ends it) stays under the sender's retransmission
// timeout, or held acks would read as loss.
func TestTimerOrdering(t *testing.T) {
	if ackHoldMax+timerTick >= rto {
		t.Fatalf("ackHoldMax %v + timerTick %v must stay below rto %v", ackHoldMax, timerTick, rto)
	}
}

// xorWorld is a compiled replay over T3(2,2,2) in which rank r sends words
// to r^7, r^5 and r^3. XOR patterns are symmetric, so every link the
// schedule uses carries data both ways — the shape on which no ack
// datagram should be needed.
type xorWorld struct {
	w      *World
	replay []*core.Replay
	x      [][]float64
	halo   [][]float64
}

const xorWords = 6

var xorDsts = []int{7, 5, 3}

func xorValue(src, dst, iter, i int) float64 {
	return float64(src*1000+dst*100+i) + float64(iter)/1024
}

func newXorWorld(t *testing.T, opts ...Option) *xorWorld {
	t.Helper()
	const K = 8
	tp := vpt.MustNew(2, 2, 2)
	w, err := NewWorld(K, opts...)
	if err != nil {
		t.Fatal(err)
	}
	xw := &xorWorld{w: w, replay: make([]*core.Replay, K), x: make([][]float64, K), halo: make([][]float64, K)}
	err = runtime.Run(w.Comms(), func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{}
		gather := map[int][]int32{}
		for k, m := range xorDsts {
			payloads[me^m] = make([]byte, 8*xorWords)
			idx := make([]int32, xorWords)
			for i := range idx {
				idx[i] = int32(k*xorWords + i)
			}
			gather[me^m] = idx
		}
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		r, err := p.Compile(len(xorDsts)*xorWords, gather)
		if err != nil {
			return err
		}
		xw.replay[me] = r
		xw.x[me] = make([]float64, len(xorDsts)*xorWords)
		xw.halo[me] = make([]float64, r.HaloWords())
		return nil
	})
	if err != nil {
		w.Close()
		t.Fatal(err)
	}
	return xw
}

// run replays iterations [from, to) and checks every delivered word
// against the value its source wrote for that iteration, bit for bit.
func (xw *xorWorld) run(from, to int) error {
	return runtime.Run(xw.w.Comms(), func(c runtime.Comm) error {
		me := c.Rank()
		x, halo := xw.x[me], xw.halo[me]
		want := map[uint64]int{}
		for iter := from; iter < to; iter++ {
			for k, m := range xorDsts {
				for i := 0; i < xorWords; i++ {
					x[k*xorWords+i] = xorValue(me, me^m, iter, i)
				}
			}
			if err := xw.replay[me].Run(c, x, halo); err != nil {
				return err
			}
			// Delivery order across sources is the replay's own; the
			// multiset of words is fixed by the pattern.
			clear(want)
			for _, m := range xorDsts {
				for i := 0; i < xorWords; i++ {
					want[math.Float64bits(xorValue(me^m, me, iter, i))]++
				}
			}
			for _, v := range halo {
				want[math.Float64bits(v)]--
			}
			for bits, n := range want {
				if n != 0 {
					return fmt.Errorf("rank %d iter %d: word %v delivered %+d times off", me, iter, math.Float64frombits(bits), -n)
				}
			}
		}
		return nil
	})
}

// TestPiggybackSteadyState is the tentpole's contract: on a schedule whose
// links all carry data both ways, the steady state is one datagram per
// scheduled frame. Over 200 hinted compiled replays after warm-up, ack
// datagrams stay under 2% of data datagrams (what remains is the tail
// after the last iteration, sent by the hold timer), nothing is resent,
// and every payload arrives bit-identical.
func TestPiggybackSteadyState(t *testing.T) {
	xw := newXorWorld(t)
	defer xw.w.Close()
	if err := xw.run(0, 20); err != nil {
		t.Fatal(err)
	}
	a := xw.w.Stats()
	if err := xw.run(20, 220); err != nil {
		t.Fatal(err)
	}
	time.Sleep(ackHoldMax + 2*timerTick) // let the tail acks leave, so they count
	b := xw.w.Stats()
	data, acks := b.DataSent-a.DataSent, b.AckDgrams-a.AckDgrams
	if data < 200*8 { // 24 scheduled frames per iteration, less coalescing
		t.Fatalf("only %d data datagrams over 200 iterations", data)
	}
	if acks*50 > data {
		t.Errorf("%d ack datagrams against %d data datagrams, want <= 2%%", acks, data)
	}
	if b.AcksPiggybacked-a.AcksPiggybacked < data/2 {
		t.Errorf("only %d acks rode on %d data datagrams", b.AcksPiggybacked-a.AcksPiggybacked, data)
	}
	if b.Resends != 0 || b.Dups != 0 {
		t.Errorf("loss-free run resent %d packets, saw %d duplicates", b.Resends, b.Dups)
	}
	if b.AcksSent != b.AckDgrams+b.AcksPiggybacked {
		t.Errorf("acks sent %d != %d datagrams + %d piggybacked", b.AcksSent, b.AckDgrams, b.AcksPiggybacked)
	}
	t.Logf("data=%d ack dgrams=%d piggybacked=%d stage=%d", data, acks, b.AcksPiggybacked-a.AcksPiggybacked, b.StageAcks-a.StageAcks)
}

// TestPiggybackUnderLoss loses a tenth of all datagrams in both directions
// of every link, so piggybacked acks are regularly lost with their
// carriers; the duplicate and hold-timer rules must keep every window
// moving and every payload intact.
func TestPiggybackUnderLoss(t *testing.T) {
	xw := newXorWorld(t, WithLoss(0.10, 11))
	defer xw.w.Close()
	if err := xw.run(0, 60); err != nil {
		t.Fatal(err)
	}
	st := xw.w.Stats()
	if st.InjectedDrops == 0 || st.Resends == 0 {
		t.Errorf("loss never exercised: %d drops, %d resends", st.InjectedDrops, st.Resends)
	}
	if st.AcksPiggybacked == 0 || st.AckDgrams == 0 {
		t.Errorf("want both ack vehicles under loss: %d piggybacked, %d datagrams", st.AcksPiggybacked, st.AckDgrams)
	}
}

// TestOneWayStageAcksAtOnce covers the link the schedule never sends data
// back on: rank 0 sends hinted stages to rank 1, which never sends. No
// data packet will ever carry rank 1's acks, so each completed stage must
// produce a stand-alone ack immediately — rank 0 waits for its window to
// drain after every stage, and the whole run would take stages x
// ackHoldMax if those acks waited for the hold timer.
func TestOneWayStageAcksAtOnce(t *testing.T) {
	const stages, frames, tag = 25, 3, 4
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	hint0 := []runtime.StageTraffic{{Tag: tag, Sends: []runtime.PeerTraffic{{Peer: 1, Frames: frames}}}}
	hint1 := []runtime.StageTraffic{{Tag: tag, Recvs: []runtime.PeerTraffic{{Peer: 0, Frames: frames}}}}
	sl := w.byRank[0].sl[1]
	var elapsed time.Duration
	hinted := make(chan struct{}) // frames sent before the hint would not count toward a stage
	err = runtime.Run(w.Comms(), func(c runtime.Comm) error {
		if c.Rank() == 1 {
			runtime.HintTraffic(c, hint1)
			close(hinted)
			for i := 0; i < stages*frames; i++ {
				p, err := c.Recv(0, tag)
				if err != nil {
					return err
				}
				msg.PutFrame(p)
			}
			return nil
		}
		runtime.HintTraffic(c, hint0)
		<-hinted
		t0 := time.Now()
		for s := 0; s < stages; s++ {
			for f := 0; f < frames; f++ {
				if err := c.Send(1, tag, []byte{byte(s), byte(f)}); err != nil {
					return err
				}
			}
			// Both the drain pass and the ack that empties the window
			// broadcast on the link's condition.
			sl.mu.Lock()
			for sl.inFlight() > 0 || sl.open != nil || len(sl.backlog) > sl.backlogHead {
				sl.cond.Wait()
			}
			sl.mu.Unlock()
		}
		elapsed = time.Since(t0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A scheduling stall past the RTO may add a resend and its re-ack, so
	// the datagram count is a floor; the stage count is exact.
	st := w.Stats()
	if st.StageAcks != stages || st.AckDgrams < stages || st.AcksPiggybacked != 0 {
		t.Errorf("want %d stage acks, each its own datagram: %+v", stages, st)
	}
	if elapsed > stages*ackHoldMax/2 {
		t.Errorf("%d one-way stages took %v: acks waited for the hold timer", stages, elapsed)
	}
}

// bareWorld builds a world's link tables without sockets or goroutines, so
// a test can step the sender and receiver paths by hand.
func bareWorld(size int) *World {
	w := &World{
		size:   size,
		byRank: make([]*rankState, size),
		ring:   NewPacketRing(8, maxDatagram),
		closed: make(chan struct{}),
	}
	for r := range w.byRank {
		w.byRank[r] = newRankState(r, size, options{})
		w.local = append(w.local, w.byRank[r])
	}
	return w
}

// TestResendCarriesNewerAck steps one link by hand: a data packet leaves
// before anything arrived on the reverse link (ack 0) and is lost; a
// packet from the peer is then sequenced; the retransmission must be
// stamped again and carry the newer ack, settling the debt.
func TestResendCarriesNewerAck(t *testing.T) {
	w := bareWorld(2)
	rs := w.byRank[0]
	sl, rl := rs.sl[1], rs.rl[1]
	now := time.Now().UnixNano()

	if err := w.sendFrame(rs, 1, 5, []byte("out")); err != nil {
		t.Fatal(err)
	}
	batch := w.drainLink(rs, sl, now, nil)
	if len(batch) != 1 {
		t.Fatalf("drain staged %d datagrams, want 1", len(batch))
	}
	first, _, err := parseDgram(batch[0].buf, 2)
	if err != nil || !first.hasAck || first.ack != 0 {
		t.Fatalf("first transmission header %+v, %v; want ack 0", first, err)
	}
	sl.slot(0).sending = false // the write returned; the datagram was lost

	in := buildDataPacketHdr(dgramHeader{kind: kindData, from: 1, seq: 0},
		[]chunk{{tag: 5, frameID: 0, frameLen: 2, off: 0, frag: []byte("in")}})
	if kept, dirty := w.handleDgram(rs, in, len(in)); kept || dirty != rl {
		t.Fatalf("in-order packet: kept=%v dirty=%v", kept, dirty)
	}
	w.maybeAck(rs, rl, now+int64(time.Millisecond))
	if rl.owedSince == 0 {
		t.Fatal("sequenced packet left no ack owed")
	}

	if inFlight := w.resendExpired(rs, sl, now+int64(rto)); !inFlight || len(rs.out.items) != 1 {
		t.Fatalf("RTO scan: inFlight=%v queued=%d, want one resend", inFlight, len(rs.out.items))
	}
	batch = w.stageResend(rs, sl, 0, now+int64(rto), nil)
	if len(batch) != 1 {
		t.Fatalf("resend staged %d datagrams, want 1", len(batch))
	}
	again, _, err := parseDgram(batch[0].buf, 2)
	if err != nil || !again.hasAck || again.ack != 1 || again.seq != 0 {
		t.Fatalf("retransmission header %+v, %v; want seq 0 ack 1", again, err)
	}
	if want := uint32((rto - time.Millisecond) / time.Microsecond); again.ackDelay != want {
		t.Errorf("retransmission reports %d us of ack hold, want %d", again.ackDelay, want)
	}
	if rl.owedSince != 0 {
		t.Error("ack still owed after it left on the retransmission")
	}
	if st := w.Stats(); st.AcksPiggybacked != 1 || st.AcksSent != 1 || st.AckDgrams != 0 {
		t.Errorf("ack counters after one piggyback: %+v", st)
	}
}

// TestLinkStateOnFirstUse pins the lazy per-link allocations: a fresh
// world holds no window slots and no out-of-order stash, a link that
// carries a packet gets its window, and only a reordered arrival creates a
// stash.
func TestLinkStateOnFirstUse(t *testing.T) {
	w := bareWorld(3)
	for _, rs := range w.local {
		for p := range rs.sl {
			if rs.sl[p].wnd != nil || rs.rl[p].pending != nil {
				t.Fatalf("rank %d link %d allocated before first use", rs.rank, p)
			}
		}
	}
	rs := w.byRank[0]
	if err := w.sendFrame(rs, 1, 5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	w.drainLink(rs, rs.sl[1], 1, nil)
	if rs.sl[1].wnd == nil || rs.sl[2].wnd != nil {
		t.Errorf("window slots: used link %v, idle link %v", rs.sl[1].wnd != nil, rs.sl[2].wnd != nil)
	}
	pkt := func(seq uint32) []byte {
		b := w.ring.Get()[:maxDatagram]
		p := buildDataPacketHdr(dgramHeader{kind: kindData, from: 2, seq: seq},
			[]chunk{{tag: 5, frameID: seq, frameLen: 1, off: 0, frag: []byte{byte(seq)}}})
		return b[:copy(b, p)]
	}
	rl := rs.rl[2]
	if bm := rl.sackBitmap(); bm != 0 {
		t.Errorf("sack bitmap of a link with no stash = %#x", bm)
	}
	p1 := pkt(1)
	if kept, _ := w.handleDgram(rs, p1[:maxDatagram], len(p1)); !kept || rl.pending == nil {
		t.Fatalf("reordered packet: kept=%v stash=%v", kept, rl.pending != nil)
	}
	if bm := rl.sackBitmap(); bm != 1 {
		t.Errorf("sack bitmap = %#x, want bit 0 for seq 1", bm)
	}
	p0 := pkt(0)
	if kept, _ := w.handleDgram(rs, p0[:maxDatagram], len(p0)); kept || rl.expected != 2 {
		t.Errorf("gap fill: kept=%v expected=%d, want both packets sequenced", kept, rl.expected)
	}
	w.ring.Put(p0)
}

// TestSteadyStateAllocs is the allocation gate on the whole packet path:
// after warm-up, a hinted two-rank exchange performs at most one heap
// allocation per round trip, counted process-wide because the work
// happens on the sender and receiver goroutines.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const tag, warm, rounds = 6, 200, 2000
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	hints := [2][]runtime.StageTraffic{}
	for r := range hints {
		peer := []runtime.PeerTraffic{{Peer: 1 - r, Frames: 1}}
		hints[r] = []runtime.StageTraffic{{Tag: tag, Sends: peer, Recvs: peer}}
	}
	payload := bytes.Repeat([]byte{7}, 256)
	exchange := func(n int) error {
		return runtime.Run(w.Comms(), func(c runtime.Comm) error {
			peer := 1 - c.Rank()
			for i := 0; i < n; i++ {
				runtime.HintTraffic(c, hints[c.Rank()])
				if err := c.Send(peer, tag, payload); err != nil {
					return err
				}
				p, err := c.Recv(peer, tag)
				if err != nil {
					return err
				}
				msg.PutFrame(p)
			}
			return nil
		})
	}
	if err := exchange(warm); err != nil {
		t.Fatal(err)
	}
	var a, b goruntime.MemStats
	goruntime.ReadMemStats(&a)
	if err := exchange(rounds); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&b)
	// runtime.Run itself starts a goroutine per rank; that is per call,
	// not per round trip.
	if per := float64(b.Mallocs-a.Mallocs) / rounds; per > 1 {
		t.Errorf("%.2f allocations per round trip in steady state, want <= 1", per)
	} else {
		t.Logf("%.3f allocations per round trip", per)
	}
}
