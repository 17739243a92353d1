package core

import (
	"fmt"

	"stfw/internal/msg"
	"stfw/internal/runtime"
)

// recvFault attributes a failed receive of stage d, which traverses
// dimension dim: it names the expected senders whose frames have not
// landed (landed(j) reports the j-th of from). The learning run (route)
// and the compiled replay both report a failed receive through it.
func recvFault(me, d, dim int, from []int, landed func(j int) bool, err error) error {
	var out []int
	for j, f := range from {
		if !landed(j) {
			out = append(out, f)
		}
	}
	return fmt.Errorf("core: rank %d stage %d (dimension %d) recv, outstanding senders %v: %w", me, d, dim, out, err)
}

type stageFrame struct {
	to   int
	subs []msg.Submessage
}

type stageBatch struct {
	tag  int
	outs []stageFrame
}

// sendWorker is the per-exchange send goroutine: it drains stage batches
// in FIFO order, encoding every frame into a pooled buffer and handing it
// to the transport. On retaining transports the receiving rank recycles the
// buffer; otherwise the worker does, right after Send returns. After the
// first send error the worker drains (and drops) remaining batches so the
// enqueueing side never blocks; join surfaces the error.
type sendWorker struct {
	ch     chan stageBatch
	done   chan struct{}
	err    error // written by the worker, read after <-done
	joined bool
}

func startSendWorker(c runtime.Comm, me, stages int) *sendWorker {
	sw := &sendWorker{ch: make(chan stageBatch, stages), done: make(chan struct{})}
	retains := runtime.SendRetains(c)
	go func() {
		defer close(sw.done)
		for batch := range sw.ch {
			if sw.err != nil {
				continue
			}
			for _, of := range batch.outs {
				m := msg.Message{From: me, To: of.to, Subs: of.subs}
				buf := msg.Encode(msg.GetFrameCap(msg.EncodedSize(&m)), &m)
				err := c.Send(of.to, batch.tag, buf)
				if !retains {
					msg.PutFrame(buf)
				}
				if err != nil {
					sw.err = fmt.Errorf("core: rank %d send to %d (tag %d): %w", me, of.to, batch.tag, err)
					break
				}
			}
		}
	}()
	return sw
}

func (sw *sendWorker) enqueue(tag int, outs []stageFrame) { sw.ch <- stageBatch{tag: tag, outs: outs} }

// join closes the batch queue, waits for the worker to finish, and returns
// its first error. Safe to call twice (route joins on the happy path and
// again via defer).
func (sw *sendWorker) join() error {
	if !sw.joined {
		sw.joined = true
		close(sw.ch)
	}
	<-sw.done
	return sw.err
}
