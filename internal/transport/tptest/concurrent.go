package tptest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"stfw/internal/runtime"
)

// RunConcurrentSend checks the Comm contract's concurrent-Send clause on a
// three-rank world: four goroutines share rank 0's endpoint, each sending
// 200 numbered frames of up to 32 KiB round-robin to ranks 1 and 2 on tags
// 5 and 6, while
// one receiver per (rank, tag) drains them. Every frame must arrive exactly
// once and byte-exact, and each goroutine's frames in its own order per
// (destination, tag). The factory's teardown must also leave no goroutine
// or descriptor behind. A world that loses a frame is closed after 30 s so
// the blocked receivers fail instead of hanging the run.
func RunConcurrentSend(t *testing.T, newWorld Factory) {
	t.Helper()
	const senders, frames = 4, 200
	dsts, tags := []int{1, 2}, []int{5, 6}
	combos := len(dsts) * len(tags)

	check := LeakCheck(t)
	comms, closeWorld, err := newWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	var closeOnce sync.Once
	shut := func() {
		closeOnce.Do(func() {
			if closeWorld != nil {
				closeWorld()
			}
		})
	}
	watchdog := time.AfterFunc(30*time.Second, shut)
	defer func() {
		watchdog.Stop()
		shut()
		check()
	}()

	// Frame i of goroutine g goes to dsts[i%2] under tags[i/2%2]; its
	// payload is (g, i) followed by up to 32 KiB derived from both. Frames
	// that large span several packets on a datagram transport, and ~6 MB
	// per destination outruns any send window, so a Send that stalls on
	// flow control mid-frame must still keep its frame whole.
	payload := func(g, i int) []byte {
		p := make([]byte, 8+(i*7919+g*104729)%(32<<10))
		binary.LittleEndian.PutUint32(p, uint32(g))
		binary.LittleEndian.PutUint32(p[4:], uint32(i))
		for j := 8; j < len(p); j++ {
			p[j] = byte(g*31 + i + j)
		}
		return p
	}

	errs := make(chan error, senders+combos)
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := comms[0].Send(dsts[i%2], tags[i/2%2], payload(g, i)); err != nil {
					errs <- fmt.Errorf("sender %d frame %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	for k := 0; k < combos; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			dst, tag := dsts[k%2], tags[k/2]
			// next[g] is the index of goroutine g's next frame for this
			// (dst, tag): k, k+4, k+8, ...
			next := make([]int, senders)
			for g := range next {
				next[g] = k
			}
			for n := 0; n < senders*frames/combos; n++ {
				from, got, err := runtime.RecvAnyOf(comms[dst], tag, []int{0})
				if err != nil {
					errs <- fmt.Errorf("rank %d tag %d, frame %d: %w", dst, tag, n, err)
					return
				}
				if from != 0 || len(got) < 8 {
					errs <- fmt.Errorf("rank %d tag %d: %d-byte frame from %d", dst, tag, len(got), from)
					return
				}
				g, i := int(binary.LittleEndian.Uint32(got)), int(binary.LittleEndian.Uint32(got[4:]))
				if g >= senders {
					errs <- fmt.Errorf("rank %d tag %d: frame names sender %d of %d", dst, tag, g, senders)
					return
				}
				if i != next[g] {
					errs <- fmt.Errorf("rank %d tag %d: got frame %d of sender %d, want frame %d", dst, tag, i, g, next[g])
					return
				}
				if !bytes.Equal(got, payload(g, i)) {
					errs <- fmt.Errorf("rank %d tag %d: frame %d of sender %d corrupted", dst, tag, i, g)
					return
				}
				next[g] += combos
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
