package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tptest"
	"stfw/internal/transport/udpnet"
	"stfw/internal/vpt"
)

// TestPersistentRunContractBreach: a replay that breaks the learned
// contract fails every rank, within a bound, and leaves the world in step.
// On chanpt and udpnet, K=8 over T3(2,2,2), every rank learns a pattern,
// then one rank replays with a payload one byte short. Every rank's Run
// must return an error within 1 s — the short rank's naming the
// destination, the learned and the given length — and a clean Run after
// it must deliver the pattern on every rank. The world must leak no
// goroutine or descriptor.
func TestPersistentRunContractBreach(t *testing.T) {
	const K, bound = 8, time.Second
	tp := vpt.MustNew(2, 2, 2)
	dests := confSendSets(7, K)
	short := 0
	for len(dests[short]) == 0 {
		short++
	}
	dst := dests[short][0]
	learned := len(confPayload(short, dst))
	for _, transport := range []string{"chanpt", "udpnet"} {
		t.Run(transport, func(t *testing.T) {
			check := tptest.LeakCheck(t)
			comms, closeWorld := faultTestWorld(t, transport, K)

			errs := make([]error, K)
			took := make([]time.Duration, K)
			done := make(chan error, 1)
			go func() {
				done <- runtime.Run(comms, func(c runtime.Comm) error {
					me := c.Rank()
					payloads := map[int][]byte{}
					for _, d := range dests[me] {
						payloads[d] = confPayload(me, d)
					}
					p, _, err := core.NewPersistent(c, tp, payloads)
					if err != nil {
						return err
					}
					bad := payloads
					if me == short {
						bad = map[int][]byte{}
						for d, b := range payloads {
							bad[d] = b
						}
						bad[dst] = bad[dst][:learned-1]
					}
					start := time.Now()
					_, errs[me] = p.Run(c, bad)
					took[me] = time.Since(start)

					got, err := p.Run(c, payloads)
					if err != nil {
						return fmt.Errorf("clean run after the breach: %w", err)
					}
					if n := len(got.Subs); n != len(confRecvFrom(dests, me)) {
						return fmt.Errorf("clean run after the breach delivered %d payloads, want %d", n, len(confRecvFrom(dests, me)))
					}
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Error(err)
				}
			case <-time.After(10 * bound):
				closeWorld()
				<-done
				t.Fatalf("world still running after %v", 10*bound)
			}
			closeWorld()
			check()

			t.Logf("short rank %d: %v; rank %d: %v", short, errs[short], (short+1)%K, errs[(short+1)%K])
			want := fmt.Sprintf("destination %d: learned payload length %d, got %d bytes", dst, learned, learned-1)
			for me, err := range errs {
				switch {
				case err == nil:
					t.Errorf("rank %d: breached replay returned no error", me)
				case me == short && !strings.Contains(err.Error(), want):
					t.Errorf("short rank %d: error %q does not name %q", me, err, want)
				}
				if took[me] > bound {
					t.Errorf("rank %d: breached replay took %v, bound %v", me, took[me], bound)
				}
			}
		})
	}
}

// faultTestWorld opens a K-rank chanpt or udpnet world.
func faultTestWorld(t *testing.T, transport string, K int) ([]runtime.Comm, func()) {
	t.Helper()
	if transport == "chanpt" {
		w, err := chanpt.NewWorld(K, 2)
		if err != nil {
			t.Fatal(err)
		}
		return w.Comms(), w.Close
	}
	w, err := udpnet.NewWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	return w.Comms(), w.Close
}

// recvFaultComm hands its rank one faulty receive once armed: the first
// stage-0 frame the rank receives is consumed from the transport and
// replaced, by the same frame attributed to the rank itself (a sender no
// stage expects), or by a receive error.
type recvFaultComm struct {
	runtime.Passthrough
	armed atomic.Bool
	lie   bool // attribute the frame to this rank; false: fail the receive
}

func (f *recvFaultComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	sender, frame, err := runtime.RecvAnyOf(f.Comm, tag, from)
	if err != nil || tag != core.StageTag(0) || !f.armed.CompareAndSwap(true, false) {
		return sender, frame, err
	}
	if f.lie {
		return f.Rank(), frame, nil
	}
	msg.PutFrame(frame)
	return -1, nil, errors.New("injected receive fault")
}

// TestPersistentRunRecvFault: a receive that fails, or that hands the
// replay a frame from a sender the stage does not expect, fails the Run
// the way a failed frame check does, not by returning on the spot. On
// chanpt and udpnet, K=8 over T3(2,2,2), rank 0's first stage-0 receive of
// a replay goes wrong. Every rank returns within 1 s: rank 0 with the
// fault (a failed receive naming the stage, its dimension and the sender
// it was waiting for, rank 1), every rank its poison frames reach — those sharing rank 0's
// dimension-0 digit, whose later stages hear from it — with the poison,
// and the others, whose stages never hear from a poisoned rank, with their
// deliveries intact. A clean Run after it delivers the pattern on every
// rank, and the world leaks no goroutine or descriptor.
func TestPersistentRunRecvFault(t *testing.T) {
	const K, faulty, bound = 8, 0, time.Second
	tp := vpt.MustNew(2, 2, 2)
	dests := confSendSets(7, K)
	ref := refDeliveries(K, dests)
	for _, transport := range []string{"chanpt", "udpnet"} {
		for _, lie := range []bool{true, false} {
			fault, want := "recv-error", "stage 0 (dimension 0) recv, outstanding senders [1]: injected receive fault"
			if lie {
				fault, want = "unexpected-sender", fmt.Sprintf("frame from unexpected sender %d", faulty)
			}
			t.Run(transport+"/"+fault, func(t *testing.T) {
				check := tptest.LeakCheck(t)
				comms, closeWorld := faultTestWorld(t, transport, K)
				fc := &recvFaultComm{Passthrough: runtime.Passthrough{Comm: comms[faulty]}, lie: lie}
				comms[faulty] = fc

				errs := make([]error, K)
				took := make([]time.Duration, K)
				done := make(chan error, 1)
				go func() {
					done <- runtime.Run(comms, func(c runtime.Comm) error {
						me := c.Rank()
						payloads := map[int][]byte{}
						for _, d := range dests[me] {
							payloads[d] = confPayload(me, d)
						}
						p, _, err := core.NewPersistent(c, tp, payloads)
						if err != nil {
							return err
						}
						if me == faulty {
							fc.armed.Store(true)
						}
						start := time.Now()
						got, err := p.Run(c, payloads)
						took[me], errs[me] = time.Since(start), err
						if err == nil {
							if err := sameSubs(got.Subs, ref[me]); err != nil {
								return fmt.Errorf("rank %d outside the poison: %w", me, err)
							}
						}
						got, err = p.Run(c, payloads)
						if err != nil {
							return fmt.Errorf("clean run after the fault: %w", err)
						}
						return sameSubs(got.Subs, ref[me])
					})
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Error(err)
					}
				case <-time.After(10 * bound):
					closeWorld()
					<-done
					t.Fatalf("world still running after %v", 10*bound)
				}
				closeWorld()
				check()

				for me, err := range errs {
					poisoned := tp.Digit(me, 0) == tp.Digit(faulty, 0)
					switch {
					case me == faulty && (err == nil || !strings.Contains(err.Error(), want)):
						t.Errorf("faulty rank %d: error %v does not name %q", me, err, want)
					case me != faulty && poisoned && (err == nil || !strings.Contains(err.Error(), "abandoned the exchange")):
						t.Errorf("rank %d: error %v, want the poison", me, err)
					case !poisoned && err != nil:
						t.Errorf("rank %d outside the poison: %v", me, err)
					}
					if took[me] > bound {
						t.Errorf("rank %d: faulted replay took %v, bound %v", me, took[me], bound)
					}
				}
			})
		}
	}
}

// sameSubs reports the first difference between deliveries and their
// reference.
func sameSubs(got, want []msg.Submessage) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d deliveries, want %d", len(got), len(want))
	}
	for i, s := range got {
		w := want[i]
		if s.Src != w.Src || s.Dst != w.Dst || !bytes.Equal(s.Data, w.Data) {
			return fmt.Errorf("delivery %d: %d->%d %x, want %d->%d %x", i, s.Src, s.Dst, s.Data, w.Src, w.Dst, w.Data)
		}
	}
	return nil
}

// confRecvFrom lists the sources whose send lists name me.
func confRecvFrom(dests map[int][]int, me int) []int {
	var srcs []int
	for src, ds := range dests {
		for _, d := range ds {
			if d == me {
				srcs = append(srcs, src)
			}
		}
	}
	return srcs
}
