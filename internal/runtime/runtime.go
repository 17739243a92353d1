// Package runtime provides the message-passing substrate the paper assumes
// from MPI: a set of K ranks that exchange tagged point-to-point frames and
// synchronize on barriers. The store-and-forward executor and the baseline
// exchange are written against the Comm interface, so they run unchanged on
// the in-process channel transport (tests, examples, benchmarks) and on the
// TCP transport (multi-socket runs). The pieces every transport shares live
// here too: Matcher, the receive side of the Comm contract, and Barrier.
package runtime

import (
	"errors"
	"fmt"
	"sync"
)

// Comm is one rank's endpoint into a world of Size() ranks. Implementations
// must allow concurrent Send and Recv, and Send must be safe for concurrent
// use by several goroutines: frames from one goroutine keep their order per
// (receiver, tag), and frames of different goroutines interleave whole. A
// composite transport relies on this — hier sends every rank of a node
// through the node leader's outer endpoint. chanpt (its matcher's lock),
// tcpnet (group commit under the connection lock), udpnet (per-link lock)
// and hier (delegation) all meet it; tptest.RunConcurrentSend checks it.
//
// Tag semantics follow MPI: a frame sent with tag t is only matched by a
// Recv with the same tag, and frames between a fixed (sender, receiver, tag)
// triple are delivered in send order.
type Comm interface {
	// Rank returns this process's identity in [0, Size()).
	Rank() int
	// Size returns the number of ranks in the world, K.
	Size() int
	// Send delivers payload to rank `to` under `tag`. The payload may be
	// retained by the transport; callers must not mutate it afterwards.
	// Safe for concurrent use.
	Send(to, tag int, payload []byte) error
	// Recv blocks until a frame with `tag` arrives from rank `from` and
	// returns its payload.
	Recv(from, tag int) ([]byte, error)
	// Barrier blocks until every rank in the world has entered it.
	Barrier() error
}

// AnyReceiver is an optional Comm extension for arrival-order receives: the
// exchange engine uses it to process whichever neighbor's frame lands
// first instead of blocking on a fixed neighbor order. Transports that
// can match frames out of sender order implement it; for everything else
// RecvAnyOf degrades to a conforming fixed-order fallback.
type AnyReceiver interface {
	// RecvAnyOf blocks until a frame carrying tag from any of the listed
	// ranks arrives, and returns the sender together with the payload.
	// Frames from ranks not in the list (or with other tags) are left
	// queued for later matching, and among deliverable frames the earliest
	// arrival is returned. Implementations that cannot provide the
	// operation (e.g. wrappers over an unknown Comm) return ErrNoRecvAny.
	RecvAnyOf(tag int, from []int) (sender int, payload []byte, err error)
}

// ErrNoRecvAny is returned by AnyReceiver implementations (typically
// wrappers) whose underlying transport cannot match frames in arrival
// order; RecvAnyOf then falls back to a fixed-order Recv.
var ErrNoRecvAny = errors.New("runtime: transport does not support arrival-order receive")

// RecvAnyOf receives a tagged frame from any of the given candidate
// senders: in arrival order when c supports it, and from the first listed
// candidate otherwise (the fixed-order fallback is conforming because every
// candidate is guaranteed to send exactly one frame with the tag). The
// candidate list must be non-empty.
func RecvAnyOf(c Comm, tag int, from []int) (int, []byte, error) {
	if len(from) == 0 {
		return -1, nil, errors.New("runtime: RecvAnyOf with no candidate senders")
	}
	if ar, ok := c.(AnyReceiver); ok {
		sender, payload, err := ar.RecvAnyOf(tag, from)
		if err == nil || !errors.Is(err, ErrNoRecvAny) {
			return sender, payload, err
		}
	}
	payload, err := c.Recv(from[0], tag)
	return from[0], payload, err
}

// RecvPolicy tracks the outstanding senders of one receive round and hands
// out their frames in arrival order: whichever expected frame lands first
// (RecvAnyOf, falling back transparently on transports without a matcher).
// The learning run (core's route) and the compiled replay reset one policy
// per stage, so
// receive ordering is decided in exactly one place. Reset reuses the
// policy's backing storage; a zero RecvPolicy is ready for use.
type RecvPolicy struct {
	buf     []int
	pending []int
}

// Reset starts a receive round over the given senders. The slice is copied;
// the caller may reuse it.
func (p *RecvPolicy) Reset(from []int) {
	p.buf = append(p.buf[:0], from...)
	p.pending = p.buf
}

// Outstanding returns how many expected frames have not been received yet.
func (p *RecvPolicy) Outstanding() int { return len(p.pending) }

// Next receives the first frame to arrive from an outstanding sender and
// removes that sender from the round.
func (p *RecvPolicy) Next(c Comm, tag int) (int, []byte, error) {
	if len(p.pending) == 0 {
		return -1, nil, errors.New("runtime: RecvPolicy.Next with no outstanding senders")
	}
	from, payload, err := RecvAnyOf(c, tag, p.pending)
	if err != nil {
		return -1, nil, err
	}
	for i, q := range p.pending {
		if q == from {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			break
		}
	}
	return from, payload, nil
}

// SendRetainer is an optional Comm extension declaring whether Send retains
// the payload slice after returning. Zero-copy transports (in-process
// channels handing the slice to the receiver) retain it; wire transports
// that serialize the bytes before Send returns do not. Engines that pool
// their send buffers use this to decide when a buffer may be reused: a
// sender told false releases the buffer itself once Send returns, and a
// sender told true gives it up. A retaining transport then owns it and
// either hands it on to the receiving rank, which releases it, or — where
// it copied the bytes after all (a composite whose route for this frame
// copies) — releases it itself once the copy is made.
type SendRetainer interface {
	// SendRetains reports whether payloads passed to Send remain referenced
	// by the transport (or the receiving rank) after Send returns.
	SendRetains() bool
}

// SendRetains reports whether c may retain payload slices passed to Send.
// Unknown transports are assumed to retain them — the safe default under
// the Comm contract.
func SendRetains(c Comm) bool {
	if r, ok := c.(SendRetainer); ok {
		return r.SendRetains()
	}
	return true
}

// RankFunc is the body executed by each rank, analogous to an MPI program's
// main. The returned error aborts the world run.
type RankFunc func(c Comm) error

// Run spawns one goroutine per rank over the given communicators (one per
// rank, index = rank) and waits for all of them. It returns the first
// non-nil error by rank order, wrapped with the rank that produced it.
func Run(comms []Comm, fn RankFunc) error {
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for r, c := range comms {
		wg.Add(1)
		go func(r int, c Comm) {
			defer wg.Done()
			errs[r] = fn(c)
		}(r, c)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// Barrier is a reusable K-party barrier usable by transport implementations.
type Barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	phase uint64
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Await blocks until n parties have called it (per phase).
func (b *Barrier) Await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		b.cond.Broadcast()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
}
