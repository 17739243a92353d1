package runtime

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is the close cause of an orderly world teardown. Every
// transport's blocked or would-block receive fails with an error that wraps
// the cause its Matcher was closed with, so errors.Is(err, ErrClosed)
// separates "the world was shut down" from "a link died" on any transport.
var ErrClosed = errors.New("runtime: world closed")

// Matcher is one rank's receive side of the Comm contract: undelivered
// frames in arrival order, matched by sender (Recv) or by tag and candidate
// senders (RecvAnyOf). Transports Push frames in as they arrive and forward
// their Comm's receives to it, so the matching rules every engine relies on
// are written once:
//
//   - frames carrying another tag, or from a sender not asked for, stay
//     queued for a later receive;
//   - among deliverable frames the earliest arrival wins;
//   - frames of a fixed (sender, receiver) pair are matched in send order,
//     so a targeted Recv meeting another tag on the pair's oldest frame is
//     a protocol error, not a frame to skip;
//   - after Close, queued frames stay receivable and every operation that
//     would block fails with the close cause instead.
type Matcher struct {
	mu      sync.Mutex
	cond    sync.Cond
	frames  []matchFrame
	queued  []int // queued[from] = frames currently buffered from that rank
	bound   int   // > 0: Push blocks a sender with bound frames queued
	waiters int   // goroutines in cond.Wait; state changes skip Broadcast at 0
	cause   error // non-nil once closed
}

type matchFrame struct {
	from, tag int
	payload   []byte
}

// NewMatcher creates the matcher of one rank in a world of size ranks.
// bound > 0 is per-sender back-pressure (a bounded mailbox: Push blocks
// while that sender has bound frames queued); bound == 0 never blocks the
// producer, which a wire transport's reader goroutine requires.
func NewMatcher(size, bound int) *Matcher {
	m := &Matcher{queued: make([]int, size), bound: bound}
	m.cond.L = &m.mu
	return m
}

// wait blocks on the condition, counting the waiter so that the exchange
// hot path — state changes with nobody blocked — skips the Broadcast.
func (m *Matcher) wait() {
	m.waiters++
	m.cond.Wait()
	m.waiters--
}

func (m *Matcher) wake() {
	if m.waiters > 0 {
		m.cond.Broadcast()
	}
}

func (m *Matcher) checkRank(r int) error {
	if r < 0 || r >= len(m.queued) {
		return fmt.Errorf("rank %d out of range [0,%d)", r, len(m.queued))
	}
	return nil
}

// Push queues a frame behind everything already queued. The payload is
// retained until a receive hands it out. It fails with the close cause once
// the matcher is closed; the caller still owns the payload then.
func (m *Matcher) Push(from, tag int, payload []byte) error {
	if err := m.checkRank(from); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.cause == nil && m.bound > 0 && m.queued[from] >= m.bound {
		m.wait()
	}
	if m.cause != nil {
		return m.cause
	}
	m.frames = append(m.frames, matchFrame{from: from, tag: tag, payload: payload})
	m.queued[from]++
	m.wake()
	return nil
}

// pop removes frame i and wakes senders blocked at the bound; the caller
// holds m.mu.
func (m *Matcher) pop(i int) []byte {
	f := m.frames[i]
	m.frames = append(m.frames[:i], m.frames[i+1:]...)
	m.queued[f.from]--
	m.wake()
	return f.payload
}

// Recv returns the oldest queued frame from the given sender, which must
// carry tag, blocking until one exists.
func (m *Matcher) Recv(from, tag int) ([]byte, error) {
	if err := m.checkRank(from); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i := range m.frames {
			if m.frames[i].from != from {
				continue
			}
			if got := m.frames[i].tag; got != tag {
				return nil, fmt.Errorf("oldest queued frame carries tag %d, expected %d", got, tag)
			}
			return m.pop(i), nil
		}
		if m.cause != nil {
			return nil, m.cause
		}
		m.wait()
	}
}

// RecvAnyOf returns the earliest-arrived queued frame carrying tag whose
// sender is listed in from, blocking until one exists.
func (m *Matcher) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	if len(from) == 0 {
		return -1, nil, errors.New("no candidate senders")
	}
	for _, f := range from {
		if err := m.checkRank(f); err != nil {
			return -1, nil, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i := range m.frames {
			if m.frames[i].tag != tag {
				continue
			}
			sender := m.frames[i].from
			for _, f := range from {
				if f == sender {
					return sender, m.pop(i), nil
				}
			}
		}
		if m.cause != nil {
			return -1, nil, m.cause
		}
		m.wait()
	}
}

// Close fails every blocked operation, and every later one that would
// block, with cause: ErrClosed for an orderly teardown, an error naming the
// dead link for a fault. The first cause sticks.
func (m *Matcher) Close(cause error) {
	m.mu.Lock()
	if m.cause == nil {
		m.cause = cause
		m.cond.Broadcast()
	}
	m.mu.Unlock()
}
