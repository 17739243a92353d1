package core

import (
	"cmp"
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
//     frame of stage d (the learning run drains a forward buffer,
//     DirectExchange wraps one payload);
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
// received in arrival order (runtime.RecvPolicy over RecvAnyOf) and decoded
// and misroute-checked as they land, and handed to onFrame in RecvFrom
// order, each as soon as the frames listed before it have been. Routing in
// schedule order makes what a stage leaves in the forward buffers, and so
// every learned layout, independent of the transport's timing. Replaying
// a learned pattern does not come here: that is the compiled Replay's
// loop.
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
	// decoded is the DecodeInto scratch. A frame that lands before its turn
	// has its submessages parked in inSubs, the stage's j-th expected
	// sender's at landed[j] (lo -1 until its frame arrives); byFrom orders
	// the stage's senders by rank, so an arriving frame finds its j by
	// binary search. All are reused stage after stage.
	var decoded msg.Message
	var inSubs []msg.Submessage
	landed := make([]subSpan, width)
	byFrom := make([]int, width)
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

		// Receive one frame per expected sender, whichever lands first. The
		// sender comes from the matcher, never from loop position, so the
		// misroute check is valid under any delivery order. Frames are
		// handed to onFrame in RecvFrom order: the frame whose turn it is
		// goes straight from the scratch, then releases the parked frames
		// queued behind it.
		pol.Reset(st.RecvFrom)
		for j := range st.RecvFrom {
			landed[j] = subSpan{lo: -1}
		}
		byFrom = byFrom[:len(st.RecvFrom)]
		for j := range byFrom {
			byFrom[j] = j
		}
		slices.SortFunc(byFrom, func(a, b int) int { return cmp.Compare(st.RecvFrom[a], st.RecvFrom[b]) })
		inSubs = inSubs[:0]
		next := 0
		for pol.Outstanding() > 0 {
			from, raw, err := pol.Next(c, st.Tag)
			if err != nil {
				return fmt.Errorf("core: rank %d stage %d recv, outstanding senders %v: %w",
					me, d, outstanding(st.RecvFrom, landed), err)
			}
			retained = append(retained, raw)
			k, ok := slices.BinarySearchFunc(byFrom, from, func(j, f int) int { return cmp.Compare(st.RecvFrom[j], f) })
			if !ok || landed[byFrom[k]].lo >= 0 {
				return fmt.Errorf("core: rank %d stage %d: frame from unexpected sender %d", me, d, from)
			}
			if derr := msg.DecodeInto(&decoded, raw); derr != nil {
				return fmt.Errorf("core: rank %d stage %d frame from %d: %w", me, d, from, derr)
			}
			if decoded.From != from || decoded.To != me {
				return fmt.Errorf("core: rank %d stage %d: misrouted frame %d->%d arrived from %d",
					me, d, decoded.From, decoded.To, from)
			}
			j := byFrom[k]
			if j != next {
				landed[j] = subSpan{lo: len(inSubs), hi: len(inSubs) + len(decoded.Subs)}
				inSubs = append(inSubs, decoded.Subs...)
				continue
			}
			landed[j] = subSpan{}
			if err := sm.onFrame(d, from, decoded.Subs); err != nil {
				return err
			}
			for next++; next < len(st.RecvFrom) && landed[next].lo >= 0; next++ {
				l := landed[next]
				if err := sm.onFrame(d, st.RecvFrom[next], inSubs[l.lo:l.hi:l.hi]); err != nil {
					return err
				}
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

// subSpan is where one inbound frame's decoded submessages sit in the
// stage's submessage slice.
type subSpan struct{ lo, hi int }

// outstanding lists the expected senders of a stage whose frames have not
// arrived, for attributing a failed receive.
func outstanding(from []int, landed []subSpan) []int {
	var out []int
	for j, f := range from {
		if landed[j].lo < 0 {
			out = append(out, f)
		}
	}
	return out
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
