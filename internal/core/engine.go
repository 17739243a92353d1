package core

import (
	"fmt"
	"time"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/telemetry"
)

// stageMachine is the engine behind every exchange that routes as it goes:
// Exchange, DirectExchange and Persistent's learning run. It executes a
// StageSchedule stage by stage — send the stage's frames, receive the
// stage's expected frames, repeat — and delegates everything front-end
// specific to four hooks. The machine owns frame encoding/decoding, the
// From/To misroute check, frame-buffer lifetime, the receive policy, and
// the per-stage telemetry span of a sampled run; the hooks own routing
// semantics:
//
//   - outSubs(d, j, slot) supplies the submessages of the j-th outbound
//     frame of stage d (Exchange and the learning run drain a forward
//     buffer, DirectExchange wraps one payload);
//   - onFrame(d, from, subs) consumes a validated inbound frame (Exchange
//     scatters into later-stage buffers, the learning run records the
//     frame's layout and then scatters, DirectExchange appends the
//     delivery). It returns the payload bytes delivered to this rank in
//     the frame, feeding the stage probe;
//   - onStage(d, deliveredBytes), optional, fires at each stage boundary
//     (the occupancy probe of WithStageProbe);
//   - finish() runs after the last stage, before inbound frames are
//     recycled: delivered payloads alias pooled frame buffers and must be
//     copied out (msg.CompactSubs) to survive the call.
//
// There is one execution discipline: every frame is encoded into a pooled
// arena buffer and sent by a per-exchange worker goroutine that drains a
// FIFO of stage batches, and inbound frames are retained until the
// exchange ends — onFrame's submessages alias them — then recycled after
// finish. Receives are served in arrival order (runtime.RecvPolicy over
// RecvAnyOf); fixedRecv pins them to the schedule's listed order instead.
// Replaying a learned pattern does not come here: that is the compiled
// Replay's loop.
type stageMachine struct {
	sched     *StageSchedule
	fixedRecv bool // receive in RecvFrom order; the learning run only (see NewPersistent)
	tele      *telemetry.Rank
	// traffic, when set, is the schedule's per-stage traffic summary,
	// offered to the transport (runtime.HintTraffic) before the first
	// stage so schedule-aware transports can run zero-speculation flow
	// control.
	traffic []runtime.StageTraffic
	outSubs func(stage, slot int, s SendSlot) ([]msg.Submessage, error)
	onFrame func(stage, from int, subs []msg.Submessage) (deliveredBytes int, err error)
	onStage func(stage, deliveredBytes int)
	finish  func() error
}

// run executes the schedule on this rank's communicator, once.
func (sm *stageMachine) run(c runtime.Comm, me int) error {
	runtime.HintTraffic(c, sm.traffic)
	// The exchange is traced whole or not at all: tr is nil on an untraced
	// one, and every span below goes through it.
	tr := sm.tele.Sample()
	sends, recvs := 0, 0
	for i := range sm.sched.Stages {
		sends += len(sm.sched.Stages[i].Sends)
		recvs += len(sm.sched.Stages[i].RecvFrom)
	}
	// retained holds the received pooled frames until the exchange ends;
	// decoded is the DecodeInto scratch, reused across frames.
	retained := make([][]byte, 0, recvs)
	defer func() {
		for _, b := range retained {
			msg.PutFrame(b)
		}
	}()
	var decoded msg.Message
	pol := runtime.RecvPolicy{Arrival: !sm.fixedRecv}
	frameArr := make([]stageFrame, 0, sends) // backing array for all stages' batches
	sw := startSendWorker(c, me, len(sm.sched.Stages))
	defer sw.join()

	var stageStart time.Time
	for d := range sm.sched.Stages {
		st := &sm.sched.Stages[d]
		if tr != nil {
			stageStart = time.Now()
		}

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

		// Receive one frame per expected sender, in the order the policy
		// dictates. The expected sender comes from the policy/matcher, never
		// from loop position, so the misroute check is valid under any
		// delivery order.
		pol.Reset(st.RecvFrom)
		stageDelivered, last := 0, -1
		for pol.Outstanding() > 0 {
			from, raw, err := pol.Next(c, st.Tag)
			if err != nil {
				if from >= 0 {
					return fmt.Errorf("core: rank %d stage %d recv from %d: %w", me, d, from, err)
				}
				return fmt.Errorf("core: rank %d stage %d recv: %w", me, d, err)
			}
			retained = append(retained, raw)
			last = from
			if derr := msg.DecodeInto(&decoded, raw); derr != nil {
				return fmt.Errorf("core: rank %d stage %d frame from %d: %w", me, d, from, derr)
			}
			if decoded.From != from || decoded.To != me {
				return fmt.Errorf("core: rank %d stage %d: misrouted frame %d->%d arrived from %d",
					me, d, decoded.From, decoded.To, from)
			}
			delivered, err := sm.onFrame(d, from, decoded.Subs)
			if err != nil {
				return err
			}
			stageDelivered += delivered
		}
		if sm.onStage != nil {
			sm.onStage(d, stageDelivered)
		}
		if tr != nil {
			stageStart = tr.SpanMark(telemetry.KStage, d, last, stageStart)
		}
	}
	if err := sw.join(); err != nil {
		return err
	}
	// finish runs before the deferred frame recycle: delivered payloads that
	// alias retained frames are still intact here.
	return sm.finish()
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
