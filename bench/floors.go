package main

import (
	"time"

	"stfw/internal/msg"
	"stfw/internal/runtime"
)

// Transport floors: two-rank loops over a transport's public constructor.
// They follow the engine's buffer discipline (pooled send buffer, released by
// the sender unless the transport retains it; received frames released by
// the receiver), so they cost what the engine's own calls cost.

const floorTag = 1

func floorSend(c runtime.Comm, to, size int) error {
	buf := msg.GetFrameLen(size)
	err := c.Send(to, floorTag, buf)
	if !runtime.SendRetains(c) {
		msg.PutFrame(buf)
	}
	return err
}

func floorRecv(c runtime.Comm, from int) error {
	p, err := c.Recv(from, floorTag)
	msg.PutFrame(p)
	return err
}

// pingPong returns the one-way time of a 64 B frame: half the mean round
// trip over n round trips after n/10 warm-up trips.
func pingPong(transport string, n int) (time.Duration, error) {
	comms, closeFn, err := openWorld(transport, 2, nil)
	if err != nil {
		return 0, err
	}
	defer closeFn()
	var wall time.Duration
	err = runtime.Run(comms, func(c runtime.Comm) error {
		peer := 1 - c.Rank()
		var t0 time.Time
		for i := -n / 10; i < n; i++ {
			if i == 0 {
				t0 = time.Now()
			}
			if c.Rank() == 0 {
				if err := floorSend(c, peer, 64); err != nil {
					return err
				}
			}
			if err := floorRecv(c, peer); err != nil {
				return err
			}
			if c.Rank() == 1 {
				if err := floorSend(c, peer, 64); err != nil {
					return err
				}
			}
		}
		if c.Rank() == 0 {
			wall = time.Since(t0)
		}
		return nil
	})
	return wall / time.Duration(2*n), err
}

// stream returns the MB/s of n 64 KiB frames sent one way, timed from the
// first send to the receiver's closing acknowledgement.
func stream(transport string, n int) (float64, error) {
	const size = 64 << 10
	comms, closeFn, err := openWorld(transport, 2, nil)
	if err != nil {
		return 0, err
	}
	defer closeFn()
	var wall time.Duration
	err = runtime.Run(comms, func(c runtime.Comm) error {
		if c.Rank() == 1 {
			for i := 0; i < n; i++ {
				if err := floorRecv(c, 0); err != nil {
					return err
				}
			}
			return floorSend(c, 0, 1)
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := floorSend(c, 1, size); err != nil {
				return err
			}
		}
		err := floorRecv(c, 1)
		wall = time.Since(t0)
		return err
	})
	return float64(n) * size / 1e6 / wall.Seconds(), err
}
