package main

import (
	"fmt"

	"stfw/internal/msg"
)

// cannedComm is a runtime.Comm with no transport and no peers: sends vanish,
// and every receive is answered at once with a pooled copy of the frame that
// was recorded for that (sender, tag) during one real iteration. An engine
// run over it costs what the engine itself costs — frame build, forward
// copies, header checks, scatter — with zero transport and zero scheduler.
// The recorded frames have the layout the learning run produces too, so a
// rank can learn, compile and replay against it alone.
type cannedComm struct {
	rank, size int
	frames     map[frameKey][]byte
}

func (c *cannedComm) Rank() int { return c.rank }
func (c *cannedComm) Size() int { return c.size }

func (c *cannedComm) Send(to, tag int, payload []byte) error { return nil }

// SendRetains reports false, so the engine recycles its own send buffers.
func (c *cannedComm) SendRetains() bool { return false }

func (c *cannedComm) Recv(from, tag int) ([]byte, error) {
	f, ok := c.frames[frameKey{from, tag}]
	if !ok {
		return nil, fmt.Errorf("canned: rank %d has no recorded frame from %d under tag %#x", c.rank, from, tag)
	}
	buf := msg.GetFrameLen(len(f))
	copy(buf, f)
	return buf, nil
}

func (c *cannedComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	p, err := c.Recv(from[0], tag)
	return from[0], p, err
}

func (c *cannedComm) Barrier() error { return nil }
