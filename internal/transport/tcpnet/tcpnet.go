// Package tcpnet implements the runtime.Comm interface over real TCP
// sockets (stdlib net): each rank owns a listener on 127.0.0.1, connections
// are dialed lazily on first send, and frames are length-prefixed. It
// demonstrates that the store-and-forward algorithm runs unchanged over a
// wire transport; the barrier is process-local (all ranks of a World live
// in one OS process, each behind its own socket endpoints).
//
// Each inbound connection's reader delivers into the receiving rank's
// runtime.Matcher (arrival-order receives, runtime.AnyReceiver), and one
// that dies while the world is open closes it with a cause naming the link,
// so the rank's receives fail instead of waiting on a dead peer. Receive
// buffers are drawn from the msg frame arena; the receiving exchange
// recycles them.
// Send serializes the payload out of the caller's buffer before returning
// (into the connection's buffered writer or straight onto the socket), so
// SendRetains reports false and senders may recycle their buffers. Writes
// coalesce: bursts of sends to one peer group-commit through a per-conn
// bufio.Writer, and the last sender of a burst flushes, so the stream
// never idles with bytes parked in user space.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"stfw/internal/msg"
	"stfw/internal/runtime"
)

// frame wire format: uint32 tag, uint32 payload length, payload bytes.
// A dialed connection starts with a uint32 hello carrying the dialer rank.
const headerLen = 8

// World is a set of TCP-connected ranks within this process.
type World struct {
	size      int
	listeners []net.Listener
	addrs     []string
	barrier   *runtime.Barrier
	matchers  []*runtime.Matcher

	mu    sync.Mutex
	conns map[connKey]*conn // send side: (from, to) -> dialed connection

	// lm is the per-directed-link counter grid, [local*size+peer]; see
	// linkstats.go.
	lm []tcpLink

	wg sync.WaitGroup
}

type connKey struct{ from, to int }

// conn is one outbound connection. Writes go through a buffered writer
// with group commit: each Send announces itself in pending before taking
// the lock, and only the sender that decrements pending to zero flushes.
// A burst of stage sends to one peer thus crosses the kernel boundary in
// one write instead of two per frame, while the last sender of any burst
// always drains the buffer before returning — the stream is never left
// parked in user space once all Send calls have returned.
type conn struct {
	mu sync.Mutex
	c  net.Conn
	bw *bufio.Writer
	// hdr is the frame header Send writes under mu. A header on Send's
	// stack escapes through bufio's io.Writer and costs an allocation per
	// frame.
	hdr     [headerLen]byte
	pending atomic.Int32
}

// NewWorld starts listeners for size ranks on loopback.
func NewWorld(size int) (*World, error) {
	if size < 1 {
		return nil, fmt.Errorf("tcpnet: world size %d < 1", size)
	}
	w := &World{
		size:     size,
		barrier:  runtime.NewBarrier(size),
		conns:    map[connKey]*conn{},
		matchers: make([]*runtime.Matcher, size),
		lm:       make([]tcpLink, size*size),
	}
	for r := range w.matchers {
		w.matchers[r] = runtime.NewMatcher(size, 0)
	}
	for r := 0; r < size; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.Close()
			return nil, fmt.Errorf("tcpnet: listen rank %d: %w", r, err)
		}
		w.listeners = append(w.listeners, ln)
		w.addrs = append(w.addrs, ln.Addr().String())
		w.wg.Add(1)
		go w.acceptLoop(r, ln)
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Close shuts down all listeners and connections and wakes blocked receives.
// The matchers close before the connections, so a reader woken by the
// teardown finds runtime.ErrClosed in place and its own cause is dropped.
func (w *World) Close() {
	for _, ln := range w.listeners {
		ln.Close()
	}
	for _, m := range w.matchers {
		m.Close(runtime.ErrClosed)
	}
	w.mu.Lock()
	for _, c := range w.conns {
		c.c.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
}

// Comms returns one communicator per rank.
func (w *World) Comms() []runtime.Comm {
	cs := make([]runtime.Comm, w.size)
	for r := range cs {
		cs[r] = &comm{world: w, rank: r}
	}
	return cs
}

// Run executes fn on every rank and closes the world afterwards.
func (w *World) Run(fn runtime.RankFunc) error {
	defer w.Close()
	return runtime.Run(w.Comms(), fn)
}

func (w *World) acceptLoop(rank int, ln net.Listener) {
	defer w.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		w.wg.Add(1)
		go w.readLoop(rank, c)
	}
}

// readLoop consumes frames from one inbound connection and routes them to
// the receiving rank's matcher. When the connection dies it closes that
// matcher with the link's error: the rank's receives fail, once the queued
// frames are drained, instead of waiting on a dead peer.
func (w *World) readLoop(to int, c net.Conn) {
	defer w.wg.Done()
	defer c.Close()
	var hello [4]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		return
	}
	from := int(binary.LittleEndian.Uint32(hello[:]))
	if from < 0 || from >= w.size {
		return
	}
	err := w.readFrames(from, to, c)
	w.matchers[to].Close(fmt.Errorf("tcpnet: link %d→%d: %w", from, to, err))
}

// readFrames delivers the link's frames until the connection or the
// matcher fails and returns why.
func (w *World) readFrames(from, to int, c net.Conn) error {
	var hdr [headerLen]byte
	for {
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return err
		}
		tag := int(binary.LittleEndian.Uint32(hdr[0:]))
		n := binary.LittleEndian.Uint32(hdr[4:])
		if n > 1<<30 {
			return fmt.Errorf("frame of %d bytes exceeds limit", n)
		}
		payload := msg.GetFrameLen(int(n))
		if _, err := io.ReadFull(c, payload); err != nil {
			msg.PutFrame(payload)
			return err
		}
		if err := w.matchers[to].Push(from, tag, payload); err != nil {
			msg.PutFrame(payload) // closed: nobody will receive it
			return err
		}
		cell := w.cell(to, from)
		cell.framesRecvd.Add(1)
		cell.bytesRecvd.Add(int64(headerLen + int(n)))
	}
}

// dial returns (establishing if needed) the outbound connection from ->
// to.
func (w *World) dial(from, to int) (*conn, error) {
	k := connKey{from, to}
	w.mu.Lock()
	defer w.mu.Unlock()
	if c := w.conns[k]; c != nil {
		return c, nil
	}
	nc, err := net.Dial("tcp", w.addrs[to])
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %d->%d: %w", from, to, err)
	}
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(from))
	if _, err := nc.Write(hello[:]); err != nil {
		nc.Close()
		return nil, err
	}
	c := &conn{c: nc, bw: bufio.NewWriterSize(nc, 64<<10)}
	w.conns[k] = c
	return c, nil
}

type comm struct {
	world *World
	rank  int
}

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.world.size }

// SendRetains reports false: the payload is fully serialized onto the
// socket before Send returns, so the caller may reuse the buffer.
func (c *comm) SendRetains() bool { return false }

func (c *comm) Send(to, tag int, payload []byte) error {
	if to < 0 || to >= c.world.size {
		return fmt.Errorf("tcpnet: send to rank %d out of range [0,%d)", to, c.world.size)
	}
	cn, err := c.world.dial(c.rank, to)
	if err != nil {
		return err
	}
	cn.pending.Add(1)
	cn.mu.Lock()
	defer cn.mu.Unlock()
	binary.LittleEndian.PutUint32(cn.hdr[0:], uint32(tag))
	binary.LittleEndian.PutUint32(cn.hdr[4:], uint32(len(payload)))
	_, werr := cn.bw.Write(cn.hdr[:])
	if werr == nil && len(payload) > 0 {
		// bufio copies the payload (or writes it through when it exceeds
		// the buffer), so SendRetains stays false either way.
		_, werr = cn.bw.Write(payload)
	}
	cell := c.world.cell(c.rank, to)
	cell.framesSent.Add(1)
	cell.bytesSent.Add(int64(headerLen + len(payload)))
	// Group commit: if another Send has already announced itself it will
	// write behind us under this lock and inherit the flush obligation;
	// otherwise we are the last of the burst and must drain.
	if cn.pending.Add(-1) == 0 {
		cell.flushes.Add(1)
		if ferr := cn.bw.Flush(); werr == nil {
			werr = ferr
		}
	}
	return werr
}

func (c *comm) Recv(from, tag int) ([]byte, error) {
	payload, err := c.world.matchers[c.rank].Recv(from, tag)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: rank %d recv from %d: %w", c.rank, from, err)
	}
	return payload, nil
}

// RecvAnyOf implements runtime.AnyReceiver on the rank's matcher.
func (c *comm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	sender, payload, err := c.world.matchers[c.rank].RecvAnyOf(tag, from)
	if err != nil {
		return -1, nil, fmt.Errorf("tcpnet: rank %d recv any of %v: %w", c.rank, from, err)
	}
	return sender, payload, nil
}

func (c *comm) Barrier() error {
	c.world.barrier.Await()
	return nil
}
