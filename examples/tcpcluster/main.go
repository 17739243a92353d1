// Store-and-forward over real TCP sockets.
//
// The same Exchange call that tests run over in-process channels here runs
// over loopback TCP connections: 16 ranks, each with its own listener,
// frames length-prefixed on the wire. Each rank sends a token to a pseudo-
// random subset of ranks through a 2D virtual topology, discovers who will
// send to it with DiscoverSources (the dynamic-discovery census, which
// rides the same topology's routes with zero-size announcements), and
// verifies every delivery.
package main

import (
	"fmt"
	"log"

	"stfw"
)

const K = 16

func main() {
	topo, err := stfw.BalancedTopology(K, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("running %d ranks over TCP, topology %s\n\n", K, topo)

	w, err := stfw.TCPWorld(K)
	if err != nil {
		log.Fatal(err)
	}
	var report [K]string
	err = w.Run(func(c stfw.Comm) error {
		me := c.Rank()
		// Deterministic pseudo-random destinations: me+1, me*3+1, me+7.
		destSet := map[int]bool{}
		for _, d := range []int{(me + 1) % K, (me*3 + 1) % K, (me + 7) % K} {
			if d != me {
				destSet[d] = true
			}
		}
		payloads := map[int][]byte{}
		dests := make([]int, 0, len(destSet))
		for d := range destSet {
			payloads[d] = []byte{byte(me), byte(d)}
			dests = append(dests, d)
		}

		// Phase 1: discover senders (collective).
		srcs, err := stfw.DiscoverSources(c, topo, dests)
		if err != nil {
			return err
		}

		// Phase 2: the data exchange (collective).
		got, err := stfw.Exchange(c, topo, payloads)
		if err != nil {
			return err
		}
		if len(got.Subs) != len(srcs) {
			return fmt.Errorf("rank %d: %d deliveries but %d announced senders",
				me, len(got.Subs), len(srcs))
		}
		for i, sub := range got.Subs {
			if sub.Src != srcs[i] || int(sub.Data[0]) != sub.Src || int(sub.Data[1]) != me {
				return fmt.Errorf("rank %d: corrupt delivery %+v", me, sub)
			}
		}
		report[me] = fmt.Sprintf("rank %2d: sent %d, received %d from %v",
			me, len(payloads), len(got.Subs), srcs)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range report {
		fmt.Println(line)
	}
	fmt.Println("\nall deliveries verified over TCP")
}
