// Package sumfix is the unit-test fixture for the interprocedural summary
// engine (summary.go): small functions with known ParamEffect,
// ReturnsOwned and MayBlock facts, including recursive and mutually
// recursive shapes that exercise the per-SCC fixpoint, and calls into the
// cross-package shape table.
package sumfix

import (
	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/transport/udpnet"
)

// --- ownership effects ---

// mint returns a freshly minted pooled frame: ReturnsOwned[0].
func mint(n int) []byte {
	return msg.GetFrameLen(n)
}

// mintChain routes the mint through a helper: still ReturnsOwned[0].
func mintChain(n int) []byte {
	return mint(n)
}

// mintPair is the tuple shape: only the buffer result is owned.
func mintPair(n int) ([]byte, error) {
	return msg.GetFrameCap(n), nil
}

// release returns its argument to the pool: Params[0] = EffRelease.
func release(b []byte) {
	msg.PutFrame(b)
}

// releaseChain releases through the helper: still EffRelease.
func releaseChain(b []byte) {
	release(b)
}

// stamp flows its argument to its result: Params[0] = EffPassthrough.
func stamp(b []byte) []byte {
	return append(b, 0x5a)
}

// stash parks the buffer in a long-lived structure: Params[1] = EffEscape.
type store struct{ bufs [][]byte }

func stash(s *store, b []byte) {
	s.bufs = append(s.bufs, b)
}

// checksum only reads: Params[0] = EffBorrow.
func checksum(b []byte) int {
	total := 0
	for _, v := range b {
		total += int(v)
	}
	return total
}

// recycleLast releases through self-recursion: the fixpoint must conclude
// Params[0] = EffRelease even though the recursive call's summary starts
// at the optimistic bottom.
func recycleLast(b []byte, n int) {
	if n <= 0 {
		msg.PutFrame(b)
		return
	}
	recycleLast(b, n-1)
}

// --- blocking ---

// blockSend blocks on a channel send: MayBlock.
func blockSend(ch chan int) {
	ch <- 1
}

// blockIndirect blocks two frames deep: MayBlock is transitive.
func blockIndirect(ch chan int) {
	blockSend(ch)
}

// spawns only blocks inside a spawned goroutine: not MayBlock for the
// caller.
func spawns(ch chan int) {
	go func() {
		ch <- 1
	}()
}

// ping and pong are mutually recursive and block on the base case: one
// SCC, both MayBlock.
func ping(ch chan int, n int) {
	if n <= 0 {
		ch <- 0
		return
	}
	pong(ch, n-1)
}

func pong(ch chan int, n int) {
	ping(ch, n-1)
}

// --- cross-package callees (crossSummary rows) ---

// recvAny blocks inside runtime.RecvAnyOf: MayBlock through the shape
// table, not through a body this package can see.
func recvAny(c runtime.Comm, from []int) error {
	_, _, err := runtime.RecvAnyOf(c, 0, from)
	return err
}

// ringRelease hands the packet back to udpnet's ring: Params[1] =
// EffRelease through the PacketRing.Put row.
func ringRelease(r *udpnet.PacketRing, b []byte) {
	r.Put(b)
}
