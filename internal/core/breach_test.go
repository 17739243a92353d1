package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"stfw/internal/core"
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
			var comms []runtime.Comm
			var closeWorld func()
			switch transport {
			case "chanpt":
				w, err := chanpt.NewWorld(K, 2)
				if err != nil {
					t.Fatal(err)
				}
				comms, closeWorld = w.Comms(), w.Close
			case "udpnet":
				w, err := udpnet.NewWorld(K)
				if err != nil {
					t.Fatal(err)
				}
				comms, closeWorld = w.Comms(), w.Close
			}

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
