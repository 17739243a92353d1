package hier_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/tptest"
	"stfw/internal/transport/udpnet"
)

// leaderWorld assembles a composite world over chanpt and a udpnet world
// built with opts, under the given rank → node table. done tears down the
// outer world, then the inner one; it may be called more than once.
func leaderWorld(t *testing.T, nodeOf []int, opts ...udpnet.Option) (comms []runtime.Comm, done func()) {
	t.Helper()
	K := len(nodeOf)
	cw, err := chanpt.NewWorld(K, 4)
	if err != nil {
		t.Fatal(err)
	}
	uw, err := udpnet.NewWorld(K, opts...)
	if err != nil {
		cw.Close()
		t.Fatal(err)
	}
	var once sync.Once
	done = func() { once.Do(func() { uw.Close(); cw.Close() }) }
	w, err := hier.New(hier.Config{Inner: cw.Comms(), Outer: uw.Comms(), NodeOf: func(r int) int { return nodeOf[r] }})
	if err != nil {
		done()
		t.Fatal(err)
	}
	return w.Comms(), done
}

// stressPayload is the frame src sends dst in round r under tag: its
// header names all four, and its length varies from empty to past one
// udpnet datagram, so frames share datagrams and some span several.
func stressPayload(src, dst, r, tag int) []byte {
	n := (src*7919 + dst*104729 + r*31 + tag*1009) % 9000
	if (src+dst+r+tag)%5 == 0 {
		n = 0
	}
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(src*13 + dst*7 + r*3 + tag + i)
	}
	return p
}

// TestLeaderRoutingStress drives every remote pair of several node layouts
// over real udpnet with 10% of datagrams lost: each rank sends N rounds to
// every rank on another node under 3 tags (a sender goroutine per rank)
// while it receives the same from every remote rank, checking each frame
// byte for byte in per-(src, dst, tag) FIFO order. The layouts cover a
// two-node world, one-rank nodes whose pairs with larger nodes ride leader
// links, and a pair of one-rank nodes, which is sent natively without a mux
// header. Teardown must leave no goroutine — the demuxes included.
func TestLeaderRoutingStress(t *testing.T) {
	layouts := []struct {
		name   string
		nodeOf []int
	}{
		{"2x8", []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"1-3-4", []int{0, 1, 1, 1, 2, 2, 2, 2}},
		{"1-1-2-4", []int{0, 1, 2, 2, 3, 3, 3, 3}},
	}
	const rounds = 12
	tags := []int{3, 4, 5}
	for i, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			check := tptest.LeakCheck(t)
			comms, done := leaderWorld(t, l.nodeOf, udpnet.WithLoss(0.1, int64(i+1)))
			watchdog := time.AfterFunc(60*time.Second, done)
			defer func() {
				watchdog.Stop()
				done()
				check()
			}()
			K := len(comms)
			remote := func(r int) []int {
				var out []int
				for p := 0; p < K; p++ {
					if l.nodeOf[p] != l.nodeOf[r] {
						out = append(out, p)
					}
				}
				return out
			}
			errs := make(chan error, 2*K)
			var wg sync.WaitGroup
			for r := 0; r < K; r++ {
				peers := remote(r)
				wg.Add(2)
				go func(c runtime.Comm) {
					defer wg.Done()
					for rd := 0; rd < rounds; rd++ {
						for _, tag := range tags {
							for _, p := range peers {
								if err := c.Send(p, tag, stressPayload(c.Rank(), p, rd, tag)); err != nil {
									errs <- err
									return
								}
							}
						}
					}
				}(comms[r])
				go func(c runtime.Comm) {
					defer wg.Done()
					for rd := 0; rd < rounds; rd++ {
						for _, tag := range tags {
							for _, p := range peers {
								got, err := c.Recv(p, tag)
								if err != nil {
									errs <- err
									return
								}
								if want := stressPayload(p, c.Rank(), rd, tag); !bytes.Equal(got, want) {
									errs <- fmt.Errorf("rank %d round %d tag %d: frame from %d is %d bytes, differs from the %d sent",
										c.Rank(), rd, tag, p, len(got), len(want))
									return
								}
							}
						}
					}
				}(comms[r])
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestOuterFailureCrossesMux closes the outer world while every rank of a
// two-node world waits in a cross-node receive — ranks 0-3 in Recv, ranks
// 4-7 in RecvAnyOf. The demux of each node sees its leader endpoint fail
// and closes every matcher of the node, so every rank returns within 1 s
// with an error that names its node's leader and wraps runtime.ErrClosed;
// a later cross-node Send from the node returns the same cause, and no
// demux goroutine outlives the world.
func TestOuterFailureCrossesMux(t *testing.T) {
	check := tptest.LeakCheck(t)
	nodeOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	comms, done := leaderWorld(t, nodeOf)
	defer func() {
		done()
		check()
	}()
	errs := make([]chan error, len(comms))
	for r, c := range comms {
		errs[r] = make(chan error, 1)
		go func(r int, c runtime.Comm) {
			var err error
			if r < 4 {
				_, err = c.Recv(4+r, 9)
			} else {
				_, _, err = runtime.RecvAnyOf(c, 9, []int{0, 1, 2, 3})
			}
			errs[r] <- err
		}(r, c)
	}
	time.Sleep(50 * time.Millisecond) // let every rank block
	done()
	deadline := time.After(time.Second)
	for r := range comms {
		leader := 4 * nodeOf[r]
		select {
		case err := <-errs[r]:
			if err == nil {
				t.Fatalf("rank %d: receive returned no error after the outer world closed", r)
			}
			if !errors.Is(err, runtime.ErrClosed) {
				t.Errorf("rank %d: %v does not wrap runtime.ErrClosed", r, err)
			}
			if want := fmt.Sprintf("node %d (leader rank %d)", nodeOf[r], leader); !strings.Contains(err.Error(), want) {
				t.Errorf("rank %d: %q does not name %q", r, err, want)
			}
		case <-deadline:
			t.Fatalf("rank %d still blocked 1 s after the outer world closed", r)
		}
	}
	err := comms[1].Send(5, 9, []byte("late"))
	if err == nil || !errors.Is(err, runtime.ErrClosed) || !strings.Contains(err.Error(), "node 0 (leader rank 0)") {
		t.Errorf("cross-node Send after the leader link failed: %v, want the node's cause", err)
	}
}

// TestLeaderLinkStats pins what LinkStats reports under leader routing: each
// mux endpoint keeps its own outer endpoint as its source, so on a K=8
// two-node all-to-all the outer FramesSent summed over the mux endpoints is
// the number of cross-node frames sent, and all of them are on the two
// leaders' rows for each other.
func TestLeaderLinkStats(t *testing.T) {
	nodeOf := []int{0, 0, 0, 0, 1, 1, 1, 1}
	comms, done := leaderWorld(t, nodeOf)
	defer done()
	K := len(comms)
	cross := 0
	for r := 0; r < K; r++ {
		for p := 0; p < K; p++ {
			if nodeOf[p] != nodeOf[r] {
				cross++
			}
		}
	}
	err := runtime.Run(comms, func(c runtime.Comm) error {
		for p := 0; p < K; p++ {
			if p != c.Rank() {
				if err := c.Send(p, 1, []byte{byte(c.Rank())}); err != nil {
					return err
				}
			}
		}
		for p := 0; p < K; p++ {
			if p == c.Rank() {
				continue
			}
			if got, err := c.Recv(p, 1); err != nil || len(got) != 1 || int(got[0]) != p {
				return fmt.Errorf("frame from %d: %v %v", p, got, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sent int64
	for r, c := range comms {
		for _, ls := range runtime.LinkStatsOf(c) {
			sent += ls.FramesSent
			if ls.FramesSent == 0 {
				continue
			}
			if leader, peer := 4*nodeOf[r], 4*(1-nodeOf[r]); r != leader || ls.Peer != peer {
				t.Errorf("rank %d reports %d frames sent to %d; only leader %d sends, to leader %d",
					r, ls.FramesSent, ls.Peer, leader, peer)
			}
		}
	}
	if sent != int64(cross) {
		t.Errorf("outer FramesSent summed over the mux endpoints = %d, want %d cross-node frames", sent, cross)
	}
}
