// Package lockedsend is the analysistest fixture for the lockedsend
// analyzer: no channel sends or blocking Comm-shaped transport calls while
// a mutex is held.
package lockedsend

import (
	"sync"

	"stfw/internal/runtime"
)

// comm mirrors the runtime.Comm transport shape.
type comm struct{}

func (comm) Send(to, tag int, payload []byte) error             { return nil }
func (comm) Recv(from, tag int) ([]byte, error)                 { return nil, nil }
func (comm) RecvAnyOf(tag int, from []int) (int, []byte, error) { return 0, nil, nil }
func (comm) Barrier() error                                     { return nil }

type engine struct {
	mu sync.Mutex
	rw sync.RWMutex
	ch chan []byte
	c  comm
	rc runtime.Comm
	in *runtime.Matcher
	n  int
}

// --- negative cases ---

func (e *engine) okSendOutsideLock(b []byte) {
	e.mu.Lock()
	e.n++
	e.mu.Unlock()
	e.ch <- b
}

func (e *engine) okCommAfterUnlock(b []byte) error {
	e.mu.Lock()
	n := e.n
	e.mu.Unlock()
	return e.c.Send(n, 0, b)
}

func (e *engine) okUnlockedBranch(fast bool, b []byte) {
	e.mu.Lock()
	if fast {
		e.mu.Unlock()
		e.ch <- b // lock released on this path
		return
	}
	e.mu.Unlock()
}

func (e *engine) okGoroutineEscapesLock(b []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	go func() {
		e.ch <- b // runs without the caller's lock
	}()
}

// --- positive cases ---

func (e *engine) badSendUnderLock(b []byte) {
	e.mu.Lock()
	e.ch <- b // want "channel send while holding e.mu"
	e.mu.Unlock()
}

func (e *engine) badSendUnderDeferredUnlock(b []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.c.Send(0, 0, b) // want "Comm.Send while holding e.mu"
}

func (e *engine) badRecvUnderRLock() ([]byte, error) {
	e.rw.RLock()
	defer e.rw.RUnlock()
	return e.c.Recv(0, 0) // want "Comm.Recv while holding e.rw"
}

func (e *engine) badBarrierUnderLock() error {
	e.mu.Lock()
	err := e.c.Barrier() // want "Comm.Barrier while holding e.mu"
	e.mu.Unlock()
	return err
}

func (e *engine) badRecvAnyOfInSelect(from []int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, _, _ = e.c.RecvAnyOf(0, from) // want "Comm.RecvAnyOf while holding e.mu"
}

// --- interprocedural: blocking hidden behind same-package helpers. The
// MayBlock summary propagates through the call graph, so holding a mutex
// across a helper that (transitively) sends is flagged like the direct
// send above ---

// flush blocks on the channel: its summary is MayBlock.
func (e *engine) flush(b []byte) {
	e.ch <- b
}

// flushIndirect blocks two frames deep: MayBlock is transitive.
func (e *engine) flushIndirect(b []byte) {
	e.flush(b)
}

// bump is lock-free bookkeeping: not MayBlock.
func (e *engine) bump() { e.n++ }

func (e *engine) okNonBlockingHelperUnderLock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.bump()
}

func (e *engine) okBlockingHelperAfterUnlock(b []byte) {
	e.mu.Lock()
	e.bump()
	e.mu.Unlock()
	e.flushIndirect(b)
}

func (e *engine) badHelperBlocksUnderLock(b []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flush(b) // want "may block on a channel send or Comm call, while holding e.mu"
}

func (e *engine) badHelperBlocksTwoFramesDeep(b []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flushIndirect(b) // want "may block on a channel send or Comm call, while holding e.mu"
}

// --- the transports' receive side blocks inside runtime.Matcher, another
// package: Recv is Comm-shaped, and a helper that delivers through Push is
// MayBlock by the Matcher row of crossSummary ---

func (e *engine) badMatcherRecvUnderLock() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.in.Recv(0, 0) // want "Comm.Recv while holding e.mu"
}

func (e *engine) deliver(b []byte) error {
	return e.in.Push(0, 0, b)
}

func (e *engine) badMatcherPushHelperUnderLock(b []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.deliver(b) // want "may block on a channel send or Comm call, while holding e.mu"
}

// --- direct cross-package calls: the shape table marks runtime.RecvAnyOf
// and Matcher.Push MayBlock, so calling them under a lock is flagged like
// the same-package helpers above ---

func (e *engine) okRuntimeRecvAnyOfAfterUnlock(from []int) error {
	e.mu.Lock()
	e.n++
	e.mu.Unlock()
	_, _, err := runtime.RecvAnyOf(e.rc, 0, from)
	return err
}

func (e *engine) badRuntimeRecvAnyOfUnderLock(from []int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, _, err := runtime.RecvAnyOf(e.rc, 0, from) // want "call to RecvAnyOf, which may block on a channel send or Comm call, while holding e.mu"
	return err
}

func (e *engine) badMatcherPushUnderLock(b []byte) error {
	e.mu.Lock()
	err := e.in.Push(0, 0, b) // want "call to Push, which may block on a channel send or Comm call, while holding e.mu"
	e.mu.Unlock()
	return err
}
