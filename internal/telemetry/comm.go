package telemetry

import (
	"time"

	"stfw/internal/runtime"
)

// StageMapper attributes a transport tag to a communication stage. The
// core package's tag layout is supplied by the caller (core.TagStage) so
// this package stays below core in the import graph; tags the mapper
// rejects are counted into stage 0.
type StageMapper func(tag int) (stage int, ok bool)

// WrapComm returns a communicator that counts every frame c sends and
// receives into the registry's collector for c.Rank(), attributing frames
// to stages through stageOf, and adds barrier wait accounting. It embeds
// runtime.Passthrough, so every control-plane seam of c (buffer ownership,
// traffic hints, link stats, reserved tags) answers through it unchanged,
// and forwards runtime.AnyReceiver itself because it counts receives (the
// wrapped receiver is resolved once, here, not per receive).
// Wrapping a comm on a nil registry returns c unchanged.
//
// The wrapper adds a handful of atomic increments per frame and allocates
// nothing, so it can stay installed under the zero-alloc gate.
func (g *Registry) WrapComm(c runtime.Comm, stageOf StageMapper) runtime.Comm {
	if g == nil {
		return c
	}
	t := g.Rank(c.Rank())
	if src, ok := c.(runtime.LinkStatsSource); ok {
		// A transport with per-link wire state (udpnet, tcpnet) feeds its
		// counters into this rank's snapshots from now on.
		t.SetLinkSource(src)
	}
	anyRecv, _ := c.(runtime.AnyReceiver)
	return &countedComm{Passthrough: runtime.Passthrough{Comm: c}, t: t, stageOf: stageOf, anyRecv: anyRecv}
}

type countedComm struct {
	runtime.Passthrough
	t       *Rank
	stageOf StageMapper
	anyRecv runtime.AnyReceiver // the wrapped comm's arrival-order receive, nil when it has none
}

func (c *countedComm) stage(tag int) int {
	if c.stageOf == nil {
		return 0
	}
	s, ok := c.stageOf(tag)
	if !ok {
		return 0
	}
	return s
}

func (c *countedComm) Send(to, tag int, payload []byte) error {
	err := c.Comm.Send(to, tag, payload)
	if err == nil {
		c.t.CountSend(c.stage(tag), len(payload))
	}
	return err
}

func (c *countedComm) Recv(from, tag int) ([]byte, error) {
	payload, err := c.Comm.Recv(from, tag)
	if err == nil {
		c.t.CountRecv(c.stage(tag), len(payload))
	}
	return payload, err
}

// RecvAnyOf forwards arrival-order receives to the wrapped transport,
// counting matched frames; wrapping an unknown transport degrades to
// runtime.ErrNoRecvAny so runtime.RecvAnyOf falls back to the counted
// fixed-order Recv.
func (c *countedComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	if c.anyRecv == nil {
		return -1, nil, runtime.ErrNoRecvAny
	}
	sender, payload, err := c.anyRecv.RecvAnyOf(tag, from)
	if err == nil {
		c.t.CountRecv(c.stage(tag), len(payload))
	}
	return sender, payload, err
}

func (c *countedComm) Barrier() error {
	start := time.Now()
	err := c.Comm.Barrier()
	if err == nil {
		c.t.CountBarrier(time.Since(start).Nanoseconds())
	}
	return err
}

// WrapComms wraps every communicator of a world in place and returns the
// slice, the one-line form used by drivers:
//
//	runtime.Run(reg.WrapComms(w.Comms(), stageOf), fn)
func (g *Registry) WrapComms(comms []runtime.Comm, stageOf StageMapper) []runtime.Comm {
	if g == nil {
		return comms
	}
	for i, c := range comms {
		comms[i] = g.WrapComm(c, stageOf)
	}
	return comms
}
