// Package chanpt implements the runtime.Comm interface in-process: Send
// delivers into the receiving rank's runtime.Matcher, which owns the receive
// side of the contract. It executes the real store-and-forward algorithm
// with real payloads entirely inside one OS process, which makes whole-world
// runs with thousands of ranks cheap enough for tests and benchmarks.
//
// The transport is zero-copy: Send hands the payload slice itself to the
// receiving rank (SendRetains reports true), and the matcher supports
// arrival-order receives (runtime.AnyReceiver), so the pipelined exchange
// engine can process whichever neighbor's frame lands first.
package chanpt

import (
	"fmt"

	"stfw/internal/runtime"
)

// World owns the matchers shared by all rank endpoints.
type World struct {
	size     int
	matchers []*runtime.Matcher
	barrier  *runtime.Barrier
}

// NewWorld creates a world of size ranks. buffer is the per-sender-pair
// matcher capacity; the stage-synchronous store-and-forward schedule needs
// capacity 1 to avoid blocking sends, but larger values are accepted.
func NewWorld(size, buffer int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("chanpt: world size %d < 1", size)
	}
	if buffer < 1 {
		buffer = 1
	}
	w := &World{size: size, barrier: runtime.NewBarrier(size)}
	w.matchers = make([]*runtime.Matcher, size)
	for i := range w.matchers {
		w.matchers[i] = runtime.NewMatcher(size, buffer)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Close tears the world down: every operation that would block — a receive
// with no matching frame, a send against a full matcher — fails from now
// on, and currently blocked ones are woken, with runtime.ErrClosed. Frames
// already queued stay receivable, so a closing world can still be drained.
// Close exists for composite transports (internal/transport/hier) whose
// helper goroutines may be parked in a receive when the world is torn down;
// a plain single-world run never needs it.
func (w *World) Close() {
	for _, m := range w.matchers {
		m.Close(runtime.ErrClosed)
	}
}

// Comms returns one communicator per rank, index = rank.
func (w *World) Comms() []runtime.Comm {
	cs := make([]runtime.Comm, w.size)
	for r := range cs {
		cs[r] = &comm{world: w, rank: r}
	}
	return cs
}

// Run executes fn on every rank of this world.
func (w *World) Run(fn runtime.RankFunc) error { return runtime.Run(w.Comms(), fn) }

type comm struct {
	world *World
	rank  int
}

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.world.size }

// SendRetains reports true: the payload slice is handed to the receiving
// rank without copying, which then owns it.
func (c *comm) SendRetains() bool { return true }

func (c *comm) Send(to, tag int, payload []byte) error {
	if to < 0 || to >= c.world.size {
		return fmt.Errorf("chanpt: send to rank %d out of range [0,%d)", to, c.world.size)
	}
	if err := c.world.matchers[to].Push(c.rank, tag, payload); err != nil {
		return fmt.Errorf("chanpt: rank %d send to %d: %w", c.rank, to, err)
	}
	return nil
}

func (c *comm) Recv(from, tag int) ([]byte, error) {
	payload, err := c.world.matchers[c.rank].Recv(from, tag)
	if err != nil {
		return nil, fmt.Errorf("chanpt: rank %d recv from %d: %w", c.rank, from, err)
	}
	return payload, nil
}

// RecvAnyOf implements runtime.AnyReceiver on the rank's matcher.
func (c *comm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	sender, payload, err := c.world.matchers[c.rank].RecvAnyOf(tag, from)
	if err != nil {
		return -1, nil, fmt.Errorf("chanpt: rank %d recv any of %v: %w", c.rank, from, err)
	}
	return sender, payload, nil
}

func (c *comm) Barrier() error {
	c.world.barrier.Await()
	return nil
}
