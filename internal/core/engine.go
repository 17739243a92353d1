package core

import (
	"fmt"
	"slices"

	"stfw/internal/msg"
	"stfw/internal/runtime"
)

// stageMachine is the engine behind every exchange that routes as it goes:
// the learning run (NewPersistent, which Exchange is) and DirectExchange.
// It executes a StageSchedule stage by stage — send the stage's frames,
// receive the stage's expected frames, repeat — and delegates everything
// front-end specific to three hooks. The machine owns frame
// encoding/decoding, the From/To misroute check, frame-buffer lifetime and
// the receive discipline; the hooks own routing semantics:
//
//   - outSubs(d, j, slot) supplies the submessages of the j-th outbound
//     frame of stage d, in the order they go on the wire (the learning run
//     drains a forward buffer and sorts it by (src, dst), DirectExchange
//     wraps one payload);
//   - onFrame(d, from, subs) consumes a validated inbound frame (the
//     learning run records the frame's layout and scatters it into
//     later-stage buffers, DirectExchange appends the delivery); the subs
//     slice is reused once onFrame returns, so onFrame copies the
//     submessages it keeps;
//   - finish() runs after the last stage, before inbound frames are
//     recycled: delivered payloads alias pooled frame buffers and must be
//     copied out (msg.CompactSubs) to survive the call.
//
// There is one execution discipline: every frame is encoded into a pooled
// arena buffer and sent by a per-exchange worker goroutine that drains a
// FIFO of stage batches, and inbound frames are retained until the
// exchange ends — onFrame's submessages alias them — then recycled after
// finish. There is one receive discipline too: a stage's frames are
// received in arrival order (runtime.RecvPolicy over RecvAnyOf), and each
// is decoded, misroute-checked and handed to onFrame as it lands. A frame
// from a rank outside the stage's RecvFrom set, or a second frame from one
// inside it, is an error. The order frames land in reaches no wire byte:
// what a stage leaves in the forward buffers is a set, and every frame the
// learning run sends carries its submessages in ascending (src, dst)
// order, so every learned layout is independent of the transport's timing.
// Replaying a learned pattern does not come here: that is the compiled
// Replay's loop.
type stageMachine struct {
	sched   *StageSchedule
	outSubs func(stage, slot int, s SendSlot) ([]msg.Submessage, error)
	onFrame func(stage, from int, subs []msg.Submessage) error
	finish  func() error
}

// run executes the schedule on this rank's communicator, once.
func (sm *stageMachine) run(c runtime.Comm, me int) error {
	runtime.HintTraffic(c, sm.sched.Traffic())
	sends, recvs, width := 0, 0, 0
	for i := range sm.sched.Stages {
		st := &sm.sched.Stages[i]
		sends += len(st.Sends)
		recvs += len(st.RecvFrom)
		width = max(width, len(st.RecvFrom))
	}
	// retained holds the received pooled frames until the exchange ends.
	retained := make([][]byte, 0, recvs)
	defer func() {
		for _, b := range retained {
			msg.PutFrame(b)
		}
	}()
	// decoded is the DecodeInto scratch; landed[j] marks the stage's j-th
	// expected sender's frame as received. Both are reused stage after
	// stage.
	var decoded msg.Message
	landed := make([]bool, width)
	var pol runtime.RecvPolicy
	frameArr := make([]stageFrame, 0, sends) // backing array for all stages' batches
	sw := startSendWorker(c, me, len(sm.sched.Stages))
	defer sw.join()

	for d := range sm.sched.Stages {
		st := &sm.sched.Stages[d]

		// Emit the stage's outbound frames in slot order as one batch handed
		// to the worker (which owns its subslice from then on; stages use
		// disjoint regions of the shared backing array), overlapped with the
		// receives below.
		outs := frameArr[len(frameArr) : len(frameArr) : len(frameArr)+len(st.Sends)]
		for j := range st.Sends {
			slot := st.Sends[j]
			subs, err := sm.outSubs(d, j, slot)
			if err != nil {
				return err
			}
			outs = append(outs, stageFrame{to: slot.To, subs: subs})
		}
		frameArr = frameArr[:len(frameArr)+len(outs)]
		sw.enqueue(st.Tag, outs)

		// Receive one frame per expected sender, whichever lands first, and
		// route it as it lands. The sender comes from the matcher, never
		// from loop position, so the misroute check is valid under any
		// delivery order; RecvFrom is ascending, so the sender's index is a
		// binary search away.
		pol.Reset(st.RecvFrom)
		landed = landed[:len(st.RecvFrom)]
		clear(landed)
		for pol.Outstanding() > 0 {
			from, raw, err := pol.Next(c, st.Tag)
			if err != nil {
				return recvFault(me, d, st.Dim, st.RecvFrom, func(j int) bool { return landed[j] }, err)
			}
			retained = append(retained, raw)
			j, ok := slices.BinarySearch(st.RecvFrom, from)
			if !ok || landed[j] {
				return fmt.Errorf("core: rank %d stage %d: frame from unexpected sender %d", me, d, from)
			}
			landed[j] = true
			if derr := msg.DecodeInto(&decoded, raw); derr != nil {
				return fmt.Errorf("core: rank %d stage %d frame from %d: %w", me, d, from, derr)
			}
			if decoded.From != from || decoded.To != me {
				return fmt.Errorf("core: rank %d stage %d: misrouted frame %d->%d arrived from %d",
					me, d, decoded.From, decoded.To, from)
			}
			if err := sm.onFrame(d, from, decoded.Subs); err != nil {
				return err
			}
		}
	}
	if err := sw.join(); err != nil {
		return err
	}
	// finish runs before the deferred frame recycle: delivered payloads that
	// alias retained frames are still intact here.
	return sm.finish()
}

// recvFault attributes a failed receive of stage d, which traverses
// dimension dim: it names the expected senders whose frames have not
// landed (landed(j) reports the j-th of from). The stage machine and the
// compiled replay both report a failed receive through it.
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
// its first error. Safe to call twice (the engine joins on the happy path
// and again via defer).
func (sw *sendWorker) join() error {
	if !sw.joined {
		sw.joined = true
		close(sw.ch)
	}
	<-sw.done
	return sw.err
}
