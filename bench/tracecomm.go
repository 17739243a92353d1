package main

import (
	"encoding/json"
	"os"
	"sync/atomic"
	"time"

	"stfw/internal/core"
	"stfw/internal/runtime"
)

// Span kinds. An iter span is opened by the driver around one op; send,
// recv_wait and barrier spans are its children, recorded by the decorator
// around the transport's public calls.
const (
	spanIter = iota
	spanSend
	spanRecvWait
	spanBarrier
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"iter", "send", "recv_wait", "barrier"}

// span is one timed interval on one rank. iter is the parent: the op index
// the rank was in when the span was recorded.
type span struct {
	kind  uint8
	stage int8 // store-and-forward stage of the tag, -1 for any other tag
	iter  int32
	start int64 // ns since the tracer's epoch
	dur   int64
}

// ringCap is how many of its latest spans each rank keeps for the dump.
// Totals are kept beside the ring, so the metrics cover every sampled span.
const ringCap = 256

// sampleEvery is the share of ops that are timed: every rank times the ops
// whose index divides by it, so the world traces the same iterations
// together and each traced iteration has all of its children. An iteration
// of spmv-chan makes ~1150 transport calls; timing all of them (two clock
// reads, one ring slot each) costs a fifth of the iteration, timing one
// iteration in eight keeps the tracing overhead under a tenth. Frames and
// bytes are counted on every op.
const sampleEvery = 8

// maxStages bounds the per-stage totals; the suite's topologies have <= 3.
const maxStages = 8

// tracedComm is the benchmark's decorator runtime.Comm. It forwards every
// call, and all five optional seams, to the endpoint it wraps; a decorator
// that dropped HintTraffic would change udpnet's flow control and so measure
// a different program. The learning run sends from a worker goroutine while
// the rank receives, so the send side and the receive side keep separate
// totals and share only the atomic ring cursor.
type tracedComm struct {
	runtime.Comm
	stages int
	epoch  time.Time
	iter   int32 // index of the op the rank is in
	timed  bool  // whether that op is a sampled one; true outside ops

	ring   [ringCap]span
	cursor atomic.Int64

	// Counted on every op, send side.
	sendN, sendBytes        int64
	stageFrames, stageBytes int64 // of those, under a store-and-forward stage tag
	// Timed on sampled ops: send side, then receive side (with barrier and
	// iter, which run on the rank's goroutine).
	sendNs            int64
	stageSendNs       [maxStages]int64
	recvNs            int64
	stageRecvNs       [maxStages]int64
	barrierNs, iterNs int64
	iterN             int64 // sampled ops

	capture map[frameKey][]byte // when non-nil, received frames are copied here
}

// frameKey addresses one frame of an iteration: stage tags carry one frame
// per (sender, tag) per iteration.
type frameKey struct{ from, tag int }

func traceWrap(epoch time.Time) (wrapFunc, *[]*tracedComm) {
	var all []*tracedComm
	return func(comms []runtime.Comm, stages int) []runtime.Comm {
		out := make([]runtime.Comm, len(comms))
		all = make([]*tracedComm, len(comms))
		for i, c := range comms {
			all[i] = &tracedComm{Comm: c, stages: stages, epoch: epoch, timed: true}
			out[i] = all[i]
		}
		return out
	}, &all
}

// now is ns since the epoch: one monotonic clock read, where time.Now reads
// the wall clock too.
func (c *tracedComm) now() int64 { return int64(time.Since(c.epoch)) }

func (c *tracedComm) record(kind uint8, stage int, start, dur int64) {
	i := c.cursor.Add(1) - 1
	c.ring[i%ringCap] = span{kind: kind, stage: int8(stage), iter: c.iter, start: start, dur: dur}
}

func (c *tracedComm) stageOf(tag int) int {
	if s, ok := core.TagStage(tag, c.stages); ok && s < maxStages {
		return s
	}
	return -1
}

func (c *tracedComm) Send(to, tag int, payload []byte) error {
	s := c.stageOf(tag)
	c.sendN++
	c.sendBytes += int64(len(payload))
	if s >= 0 {
		c.stageFrames++
		c.stageBytes += int64(len(payload))
	}
	if !c.timed {
		return c.Comm.Send(to, tag, payload)
	}
	t0 := c.now()
	err := c.Comm.Send(to, tag, payload)
	d := c.now() - t0
	c.sendNs += d
	if s >= 0 {
		c.stageSendNs[s] += d
	}
	c.record(spanSend, s, t0, d)
	return err
}

// recvStart opens a recv_wait span; -1 means this op is not a sampled one.
func (c *tracedComm) recvStart() int64 {
	if c.timed {
		return c.now()
	}
	return -1
}

func (c *tracedComm) received(from, tag int, payload []byte, t0 int64) {
	if t0 >= 0 {
		d := c.now() - t0
		s := c.stageOf(tag)
		c.recvNs += d
		if s >= 0 {
			c.stageRecvNs[s] += d
		}
		c.record(spanRecvWait, s, t0, d)
	}
	if c.capture != nil {
		c.capture[frameKey{from, tag}] = append([]byte(nil), payload...)
	}
}

func (c *tracedComm) Recv(from, tag int) ([]byte, error) {
	t0 := c.recvStart()
	payload, err := c.Comm.Recv(from, tag)
	c.received(from, tag, payload, t0)
	return payload, err
}

// RecvAnyOf implements runtime.AnyReceiver.
func (c *tracedComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	ar, ok := c.Comm.(runtime.AnyReceiver)
	if !ok {
		return -1, nil, runtime.ErrNoRecvAny
	}
	t0 := c.recvStart()
	sender, payload, err := ar.RecvAnyOf(tag, from)
	c.received(sender, tag, payload, t0)
	return sender, payload, err
}

func (c *tracedComm) Barrier() error {
	if !c.timed {
		return c.Comm.Barrier()
	}
	t0 := c.now()
	err := c.Comm.Barrier()
	d := c.now() - t0
	c.barrierNs += d
	c.record(spanBarrier, -1, t0, d)
	return err
}

// SendRetains implements runtime.SendRetainer.
func (c *tracedComm) SendRetains() bool { return runtime.SendRetains(c.Comm) }

// HintTraffic implements runtime.TrafficHinter.
func (c *tracedComm) HintTraffic(stages []runtime.StageTraffic) { runtime.HintTraffic(c.Comm, stages) }

// LinkStats implements runtime.LinkStatsSource.
func (c *tracedComm) LinkStats() []runtime.LinkStats { return runtime.LinkStatsOf(c.Comm) }

// ReservedTags implements runtime.TagReserver; an empty range means none.
func (c *tracedComm) ReservedTags() (lo, hi int) {
	lo, hi, _ = runtime.ReservedTagsOf(c.Comm)
	return lo, hi
}

// traceOp wraps a world's op so that every `every`-th op of a rank runs
// inside an iter span on the rank's decorator, with its transport calls timed.
func traceOp(op func(r, chunk int) error, tcs []*tracedComm, every int32) func(r, chunk int) error {
	return func(r, chunk int) error {
		c := tcs[r]
		c.timed = c.iter%every == 0
		var err error
		if c.timed {
			t0 := c.now()
			err = op(r, chunk)
			d := c.now() - t0
			c.iterNs += d
			c.iterN++
			c.record(spanIter, -1, t0, d)
		} else {
			err = op(r, chunk)
		}
		c.iter++
		return err
	}
}

// reset clears the totals (not the ring) before a window, so set-up traffic
// is not attributed to iterations.
func (c *tracedComm) reset() {
	c.sendN, c.sendBytes, c.stageFrames, c.stageBytes = 0, 0, 0, 0
	c.sendNs, c.recvNs, c.barrierNs, c.iterNs, c.iterN = 0, 0, 0, 0, 0
	c.stageSendNs, c.stageRecvNs = [maxStages]int64{}, [maxStages]int64{}
}

// writeTrace dumps every rank's retained spans in the Chrome trace-event
// format, which ui.perfetto.dev opens: one thread per rank, the op index and
// stage in args.
func writeTrace(path string, tcs []*tracedComm) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var evs []event
	for r, c := range tcs {
		n := c.cursor.Load()
		for i := max(0, n-ringCap); i < n; i++ {
			s := c.ring[i%ringCap]
			evs = append(evs, event{
				Name: spanNames[s.kind], Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.dur) / 1e3,
				Tid:  r,
				Args: map[string]int{"iter": int(s.iter), "stage": int(s.stage)},
			})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
