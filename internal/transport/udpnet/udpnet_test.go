package udpnet

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

func factory(opts ...Option) tptest.Factory {
	return func(size int) ([]runtime.Comm, func(), error) {
		w, err := NewWorld(size, opts...)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	}
}

// udpnet is a wire transport with a native arrival-order matcher: frames
// are serialized before Send returns, close wakes receivers, and the
// matcher validates candidate lists itself. Delivery crosses goroutines
// and sockets, so strict earliest-arrival ordering is not deterministic.
var conformanceOpts = tptest.Options{
	WantSendRetains: false,
	TestClose:       true,
	TestOutOfRange:  true,
}

func TestConformance(t *testing.T) {
	tptest.Run(t, factory(), conformanceOpts)
}

// TestConcurrentSend checks that goroutines sharing one endpoint may Send
// at once (tptest.RunConcurrentSend): the per-link lock must keep frames
// whole and numbered in order, with 10% of datagrams lost.
func TestConcurrentSend(t *testing.T) {
	tptest.RunConcurrentSend(t, factory(WithLoss(0.10, 2)))
}

// TestConformanceNoBatchIO pins the portable (per-datagram syscall) path,
// so both I/O paths stay covered regardless of platform.
func TestConformanceNoBatchIO(t *testing.T) {
	tptest.Run(t, factory(WithoutBatchIO()), conformanceOpts)
}

// TestConformanceUnderLoss runs the full conformance suite with 10% of all
// datagrams — data with the acks they carry, and stand-alone acks —
// dropped before the socket in both directions of every link: the
// selective-resend machinery and the duplicate/hold-timer ack rules must
// make the transport contract hold anyway.
func TestConformanceUnderLoss(t *testing.T) {
	tptest.Run(t, factory(WithLoss(0.10, 1)), conformanceOpts)
}

// TestConformanceUnderDelay layers the frame-level delay injector (the
// semantics-preserving fault class) over the transport.
func TestConformanceUnderDelay(t *testing.T) {
	tptest.Run(t, tptest.WithFaults(factory(), tptest.FaultConfig{
		Seed:  42,
		Delay: 0.3,
	}), conformanceOpts)
}

// TestLossRecoveredByResend proves packet loss is actually exercised and
// actually repaired: a lossy bulk exchange must deliver every byte intact
// while the stats show injected drops and resends. Partners stream at each
// other, so every link carries data both ways and an ack that rides a data
// packet is lost along with it a tenth of the time.
func TestLossRecoveredByResend(t *testing.T) {
	const K, frames, sizeB = 4, 64, 3000
	w, err := NewWorld(K, WithLoss(0.10, 7))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		to := c.Rank() ^ 1
		from := to
		done := make(chan error, 1)
		go func() {
			for i := 0; i < frames; i++ {
				p := bytes.Repeat([]byte{byte(i)}, sizeB)
				if err := c.Send(to, 9, p); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < frames; i++ {
			p, err := c.Recv(from, 9)
			if err != nil {
				return err
			}
			if len(p) != sizeB || p[0] != byte(i) || p[sizeB-1] != byte(i) {
				return fmt.Errorf("rank %d frame %d corrupt (%d bytes, first %d)", c.Rank(), i, len(p), p[0])
			}
		}
		return <-done
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.InjectedDrops == 0 {
		t.Error("loss injection never fired")
	}
	if st.Resends == 0 {
		t.Error("no resends despite injected drops")
	}
	// The per-link counters must show the repairs directly, and agree with
	// the world totals (any drift means a resend path missed its metric
	// hook).
	var linkResends, timeouts, gaps, dups int64
	for r := 0; r < K; r++ {
		for _, l := range w.RankLinkStats(r) {
			linkResends += l.Resends()
			timeouts += l.TimeoutResends
			gaps += l.GapResends
			dups += l.Dups
			if l.FramesSent > 0 && l.PktsSent == 0 {
				t.Errorf("rank %d link %d: %d frames sent but no packets counted", r, l.Peer, l.FramesSent)
			}
		}
	}
	if linkResends != st.Resends {
		t.Errorf("per-link resends %d (timeout %d + gap %d) != world resends %d",
			linkResends, timeouts, gaps, st.Resends)
	}
	if linkResends == 0 {
		t.Error("per-link counters recorded no resends despite injected drops")
	}
	t.Logf("drops=%d resends=%d (timeout=%d gap=%d) dups=%d", st.InjectedDrops, linkResends, timeouts, gaps, dups)
}

func TestLargeFrameFragmentation(t *testing.T) {
	// A frame much larger than one datagram must fragment and reassemble
	// exactly, including under loss.
	for _, loss := range []float64{0, 0.05} {
		t.Run(fmt.Sprintf("loss=%v", loss), func(t *testing.T) {
			w, err := NewWorld(2, WithLoss(loss, 3))
			if err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, 300_000)
			for i := range payload {
				payload[i] = byte(i * 31)
			}
			err = w.Run(func(c runtime.Comm) error {
				if c.Rank() == 0 {
					return c.Send(1, 2, payload)
				}
				p, err := c.Recv(0, 2)
				if err != nil {
					return err
				}
				if !bytes.Equal(p, payload) {
					return fmt.Errorf("reassembled frame differs")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBarrierOverUDPWorld(t *testing.T) {
	w, err := NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		for i := 0; i < 5; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSTFWExchangeOverUDP(t *testing.T) {
	// The full store-and-forward algorithm over UDP sockets.
	const K = 16
	tp, err := vpt.NewBalanced(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		payloads := map[int][]byte{
			(c.Rank() + 1) % K: {byte(c.Rank()), 1},
			(c.Rank() + 5) % K: {byte(c.Rank()), 5},
		}
		d, err := core.Exchange(c, tp, payloads)
		if err != nil {
			return err
		}
		if len(d.Subs) != 2 {
			return fmt.Errorf("rank %d got %d deliveries", c.Rank(), len(d.Subs))
		}
		for _, sub := range d.Subs {
			wantFrom := (c.Rank() + K - int(sub.Data[1])) % K
			if sub.Src != wantFrom || int(sub.Data[0]) != wantFrom {
				return fmt.Errorf("rank %d: bad delivery %+v", c.Rank(), sub)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.BatchDgrams == 0 {
		t.Error("no datagrams counted through the batch path")
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewGroup(GroupConfig{Size: 2, Local: []int{0, 0}}); err == nil {
		t.Error("mismatched local/conns accepted")
	}
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	comms := w.Comms()
	if err := comms[0].Send(9, 0, nil); err == nil {
		t.Error("out-of-range send accepted")
	}
	if _, err := comms[0].Recv(-1, 0); err == nil {
		t.Error("out-of-range recv accepted")
	}
	if w.Size() != 2 {
		t.Error("size wrong")
	}
}

// TestHintedAcksSuppressSpeculation drives repeated hinted exchanges over
// a schedule that mixes two-way and one-way links and asserts the
// schedule-driven ack path engaged: completed stages were reported, acks
// rode on data packets where the schedule sends data back, fewer ack
// datagrams than data datagrams were written, and the per-link
// classification agrees with the world totals whichever vehicle was used.
func TestHintedAcksSuppressSpeculation(t *testing.T) {
	const K, iters = 8, 50
	tp, err := vpt.NewBalanced(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		buf := bytes.Repeat([]byte{byte(c.Rank())}, 64)
		payloads := map[int][]byte{(c.Rank() + 3) % K: buf}
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if _, err := p.Run(c, payloads); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.StageAcks == 0 {
		t.Error("hints installed but no ack reported a completed stage")
	}
	if st.AcksPiggybacked == 0 {
		t.Error("no ack ever rode on a data packet")
	}
	if st.AckDgrams >= st.DataSent {
		t.Errorf("%d ack datagrams for %d data datagrams: acks are not riding", st.AckDgrams, st.DataSent)
	}
	if st.AcksSent != st.AckDgrams+st.AcksPiggybacked {
		t.Errorf("acks sent %d != %d datagrams + %d piggybacked", st.AcksSent, st.AckDgrams, st.AcksPiggybacked)
	}
	// The per-link ack classification must agree with the world totals.
	var acksSent, suppressed, stage, liveness int64
	for r := 0; r < K; r++ {
		for _, l := range w.RankLinkStats(r) {
			acksSent += l.AcksSent
			suppressed += l.AcksSuppressed
			stage += l.StageAcks
			liveness += l.LivenessAcks
		}
	}
	if acksSent != st.AcksSent {
		t.Errorf("per-link acks sent %d != world %d", acksSent, st.AcksSent)
	}
	if suppressed != st.AcksSuppressed {
		t.Errorf("per-link acks suppressed %d != world %d", suppressed, st.AcksSuppressed)
	}
	if stage != st.StageAcks {
		t.Errorf("per-link stage acks %d != world %d", stage, st.StageAcks)
	}
	t.Logf("stats: %+v (per-link: suppressed=%d liveness=%d)", st, suppressed, liveness)
}

// TestGroupTwoWorlds runs a 4-rank world split across two World instances
// in one process — the exact topology a multi-process launcher creates,
// without the exec.
func TestGroupTwoWorlds(t *testing.T) {
	const K = 4
	conns, addrs, err := Bind(K)
	if err != nil {
		t.Fatal(err)
	}
	wA, err := NewGroup(GroupConfig{Size: K, Local: []int{0, 1}, Conns: conns[:2], Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer wA.Close()
	wB, err := NewGroup(GroupConfig{Size: K, Local: []int{2, 3}, Conns: conns[2:], Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer wB.Close()

	comms := append(wA.Comms(), wB.Comms()...)
	err = runtime.Run(comms, func(c runtime.Comm) error {
		// Ring exchange plus a barrier, crossing the world boundary.
		to, from := (c.Rank()+1)%K, (c.Rank()+K-1)%K
		if err := c.Send(to, 1, []byte{byte(c.Rank())}); err != nil {
			return err
		}
		p, err := c.Recv(from, 1)
		if err != nil {
			return err
		}
		if len(p) != 1 || int(p[0]) != from {
			return fmt.Errorf("rank %d got %v from %d", c.Rank(), p, from)
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloseFlushesAcceptedSends closes a world right after its last Send:
// the frame must still reach a peer in another world. This is the end of a
// multi-process run — a child returns from its final Barrier and exits
// while the releases it owes other processes sit in its transmit queue.
func TestCloseFlushesAcceptedSends(t *testing.T) {
	for i := 0; i < 50; i++ {
		conns, addrs, err := Bind(2)
		if err != nil {
			t.Fatal(err)
		}
		wA, err := NewGroup(GroupConfig{Size: 2, Local: []int{0}, Conns: conns[:1], Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		wB, err := NewGroup(GroupConfig{Size: 2, Local: []int{1}, Conns: conns[1:], Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		if err := wA.Comms()[0].Send(1, 3, []byte("last words")); err != nil {
			t.Fatal(err)
		}
		wA.Close()
		got := make(chan error, 1)
		go func() {
			p, err := wB.Comms()[0].Recv(0, 3)
			if err == nil && string(p) != "last words" {
				err = fmt.Errorf("received %q", p)
			}
			got <- err
		}()
		select {
		case err := <-got:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: frame accepted before Close never arrived", i)
		}
		wB.Close()
	}
}

// TestRingSteadyState proves the bounded-allocation claim: the ring is
// sized from the world, and after a warmup exchange further iterations
// mint no new packet buffers.
func TestRingSteadyState(t *testing.T) {
	const K = 4
	tp, err := vpt.NewBalanced(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got, want := w.Ring().Stats().Minted, recvBatchMax*K+ringHeadroom; got != want {
		t.Errorf("ring preallocates %d buffers for %d local ranks, want %d", got, K, want)
	}
	run := func(iters int) error {
		return runtime.Run(w.Comms(), func(c runtime.Comm) error {
			buf := bytes.Repeat([]byte{byte(c.Rank())}, 512)
			for i := 0; i < iters; i++ {
				if _, err := core.Exchange(c, tp, map[int][]byte{(c.Rank() + 1) % K: buf}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := run(20); err != nil {
		t.Fatal(err)
	}
	minted := w.Ring().Stats().Minted
	if err := run(50); err != nil {
		t.Fatal(err)
	}
	after := w.Ring().Stats()
	if after.Minted != minted {
		t.Errorf("steady state minted buffers: %d -> %d", minted, after.Minted)
	}
	t.Logf("ring: %+v", after)
}

// TestWindowFitsSocketBuffer streams fifty windows of full datagrams at one
// receiver. With the socket buffer sized to the window (recvBufBytes) the
// kernel has room for everything the window lets the sender have in flight;
// with the 208 KiB default it dropped more packets than the stream had.
func TestWindowFitsSocketBuffer(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if raw, err := os.ReadFile("/proc/sys/net/core/rmem_max"); err == nil {
		if max, _ := strconv.Atoi(strings.TrimSpace(string(raw))); max < recvBufBytes {
			t.Skipf("net.core.rmem_max %d clamps the %d-byte request", max, recvBufBytes)
		}
	}
	var rcvbuf int
	var serr error
	if err := w.byRank[1].rc.Control(func(fd uintptr) {
		rcvbuf, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil || serr != nil {
		t.Fatalf("SO_RCVBUF: %v, %v", err, serr)
	}
	if rcvbuf < 2*recvBufBytes { // Linux reports twice what it was asked for
		t.Errorf("SO_RCVBUF = %d, want at least %d", rcvbuf, 2*recvBufBytes)
	}
	const frames = 400
	payload := make([]byte, 64<<10)
	err = w.Run(func(c runtime.Comm) error {
		for i := 0; i < frames; i++ {
			if c.Rank() == 0 {
				if err := c.Send(1, 7, payload); err != nil {
					return err
				}
			} else if _, err := c.Recv(0, 7); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Resends*4 > st.DataSent {
		t.Errorf("%d resends for %d packets: the socket buffer is dropping the window", st.Resends, st.DataSent)
	}
}

// TestSocketTeardown closes a world mid-traffic and checks goroutines and
// descriptors drain — the direct satellite check beyond the per-subtest
// checks tptest.Run performs.
func TestSocketTeardown(t *testing.T) {
	base := tptest.OpenFDs()
	for i := 0; i < 3; i++ {
		w, err := NewWorld(6)
		if err != nil {
			t.Fatal(err)
		}
		comms := w.Comms()
		done := make(chan struct{})
		go func() {
			defer close(done)
			comms[1].Recv(0, 0) // blocked until close
		}()
		if err := comms[0].Send(2, 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		w.Close()
		<-done
	}
	tptest.CheckNoLeakedFDs(t, base)
}
