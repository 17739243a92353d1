package udpnet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

// sharedCallers is how many goroutines feed one link in the drain-rule
// tests: the shape of hier's leader link, which every rank of a node sends
// on, in a 64-rank world split over two nodes.
const sharedCallers = 32

// linkStats returns comm c's counters for its link to peer.
func linkStats(c runtime.Comm, peer int) runtime.LinkStats {
	for _, l := range runtime.LinkStatsOf(c) {
		if l.Peer == peer {
			return l
		}
	}
	return runtime.LinkStats{Peer: peer}
}

// echoRounds runs sharedCallers caller goroutines on comm a and as many
// echo goroutines on b for the given number of rounds, or until an
// operation fails. In a round every caller sends one small frame to b's
// rank on its own tag and waits for the echo, and no caller starts the next
// round before all have their echo, as the ranks of a node step their
// stages together. It returns the first error other than a closed world's.
func echoRounds(a, b runtime.Comm, rounds int) error {
	// A targeted Recv must meet its tag on the pair's oldest frame, so the
	// goroutines sharing a pair receive by tag.
	peerA, peerB := []int{b.Rank()}, []int{a.Rank()}
	bar := newRoundBarrier(sharedCallers)
	var wg sync.WaitGroup
	errs := make(chan error, 2*sharedCallers)
	fail := func(err error) {
		bar.abort()
		errs <- err
	}
	for g := 0; g < sharedCallers; g++ {
		payload := bytes.Repeat([]byte{byte(g)}, 64)
		wg.Add(2)
		go func(tag int) {
			defer wg.Done()
			for i := 0; i < rounds && bar.wait(); i++ {
				if err := a.Send(b.Rank(), tag, payload); err != nil {
					fail(err)
					return
				}
				_, p, err := runtime.RecvAnyOf(a, tag, peerA)
				if err != nil {
					fail(err)
					return
				}
				msg.PutFrame(p)
			}
		}(g)
		go func(tag int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_, p, err := runtime.RecvAnyOf(b, tag, peerB)
				if err != nil {
					errs <- err
					return
				}
				err = b.Send(a.Rank(), tag, p)
				msg.PutFrame(p)
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, runtime.ErrClosed) && !isClosedErr(err) {
			return err
		}
	}
	return nil
}

// roundBarrier holds n goroutines until all have arrived, round after
// round; abort releases every waiter for good.
type roundBarrier struct {
	mu      sync.Mutex
	cond    sync.Cond
	n, here int
	round   int
	broken  bool
}

func newRoundBarrier(n int) *roundBarrier {
	b := &roundBarrier{n: n}
	b.cond.L = &b.mu
	return b
}

// wait blocks until all n goroutines have called it this round, and
// reports false once the barrier is aborted.
func (b *roundBarrier) wait() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.here++; b.here == b.n {
		b.here = 0
		b.round++
		b.cond.Broadcast()
		return !b.broken
	}
	for r := b.round; r == b.round && !b.broken; {
		b.cond.Wait()
	}
	return !b.broken
}

func (b *roundBarrier) abort() {
	b.mu.Lock()
	b.broken = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// isClosedErr reports udpnet's own closed-world Send error.
func isClosedErr(err error) bool { return err != nil && err.Error() == "udpnet: world closed" }

// TestSharedLinkCoalesces: a link several goroutines feed at once — one
// small frame each per round, as every rank of a node feeds hier's leader
// link — rides fewer datagrams than frames. Its drains seal frames of more
// than one Send, so the sender goroutine yields once before each drain and
// the other callers land in the same packet. The bound, two frames per
// datagram at least, holds under -race on two cores (three to ten measured
// without the race detector); without the yield the link carries 1.5 to
// 1.8.
func TestSharedLinkCoalesces(t *testing.T) {
	const rounds = 200
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cs := w.Comms()
	if err := echoRounds(cs[0], cs[1], rounds); err != nil {
		t.Fatal(err)
	}
	l := linkStats(cs[0], 1)
	if l.FramesSent != sharedCallers*rounds {
		t.Fatalf("%d frames counted on the link, want %d", l.FramesSent, sharedCallers*rounds)
	}
	if 2*l.PktsSent > l.FramesSent {
		t.Errorf("%d data datagrams carried %d frames of %d callers, want at most one per two frames",
			l.PktsSent, l.FramesSent, sharedCallers)
	}
	t.Logf("%d frames in %d data datagrams (%.2f frames per datagram)",
		l.FramesSent, l.PktsSent, float64(l.FramesSent)/float64(l.PktsSent))
}

// TestOneFramePerStageLinks: on a store-and-forward replay every link
// carries one frame per stage, so the rule leaves it as it was: K=64 over
// T3(4,4,4), frames well under a datagram, 50 compiled iterations after
// warm-up put exactly one data datagram on the wire per scheduled frame.
// The measured iterations run in lock step (tptest.Lockstep): a rank that
// ran a whole iteration ahead of its own sender goroutine could find its
// last frame to a neighbour still in the open packet and join it, which
// free-running ranks on two cores did for a few dozen of the 28 800 frames.
func TestOneFramePerStageLinks(t *testing.T) {
	const K, xlen, dests, iters = 64, 64, 4, 50
	tp := vpt.MustNew(4, 4, 4)
	w, err := NewWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	reps := make([]*core.Replay, K)
	halos := make([][]float64, K)
	x := make([]float64, K*xlen)
	err = runtime.Run(w.Comms(), func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{}
		gather := map[int][]int32{}
		for k := 1; k <= dests; k++ {
			dst := (me + 9*k) % K
			payloads[dst] = make([]byte, 8*k)
			gather[dst] = make([]int32, k)
		}
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		if reps[me], err = p.Compile(xlen, gather); err != nil {
			return err
		}
		halos[me] = make([]float64, reps[me].HaloWords())
		for i := 0; i < 5; i++ {
			if err := reps[me].Run(c, x[me*xlen:(me+1)*xlen], halos[me]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	step, stop := tptest.Lockstep(w.Comms(), func(c runtime.Comm, _ int) error {
		me := c.Rank()
		return reps[me].Run(c, x[me*xlen:(me+1)*xlen], halos[me])
	})
	defer stop()
	a := w.Stats()
	for i := 0; i < iters; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	b := w.Stats()
	frames := int64(iters * K * (3 + 3 + 3)) // a frame to every neighbour of every stage
	if got := b.DataSent - a.DataSent; got != frames {
		t.Errorf("%d data datagrams for %d one-per-stage frames, want one each", got, frames)
	}
}

// TestCloseFlushesYieldedPass: a Close that lands while the sender
// goroutine has yielded before draining a shared link still puts every
// frame Send accepted on the wire. Rank 0's world runs the shared-link
// echo rounds against rank 1's and is closed the moment its link reads
// shared, trial after trial; every frame rank 0 counted as sent must reach
// rank 1, and neither world may leak a goroutine or a descriptor.
func TestCloseFlushesYieldedPass(t *testing.T) {
	check := tptest.LeakCheck(t)
	for trial := 0; trial < 10; trial++ {
		if err := closeMidStream(time.Duration(trial) * 100 * time.Microsecond); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	check()
}

// closeMidStream runs one trial of TestCloseFlushesYieldedPass: rank 0's
// world is closed once the echo rounds have run for the given time and the
// link reads shared.
func closeMidStream(after time.Duration) error {
	conns, addrs, err := Bind(2)
	if err != nil {
		return err
	}
	a, err := NewGroup(GroupConfig{Size: 2, Local: []int{0}, Conns: conns[:1], Addrs: addrs})
	if err != nil {
		conns[0].Close()
		conns[1].Close()
		return err
	}
	b, err := NewGroup(GroupConfig{Size: 2, Local: []int{1}, Conns: conns[1:], Addrs: addrs})
	if err != nil {
		a.Close()
		conns[1].Close()
		return err
	}
	ca, cb := a.Comms()[0], b.Comms()[0]
	done := make(chan error, 1)
	go func() { done <- echoRounds(ca, cb, 1<<30) }()
	sl := a.byRank[0].sl[1]
	isShared := func() bool {
		sl.mu.Lock()
		defer sl.mu.Unlock()
		return sl.shared
	}
	time.Sleep(after)
	deadline := time.Now().Add(2 * time.Second)
	for !isShared() && time.Now().Before(deadline) {
	}
	shared := isShared()
	a.Close()
	sent := linkStats(ca, 1).FramesSent
	for linkStats(cb, 0).FramesRecvd < sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	if err := <-done; err != nil {
		return err
	}
	if !shared {
		return errors.New("the echo link never read shared")
	}
	if got := linkStats(cb, 0).FramesRecvd; got != sent {
		return fmt.Errorf("rank 1 received %d of the %d frames rank 0 accepted before Close", got, sent)
	}
	return nil
}
