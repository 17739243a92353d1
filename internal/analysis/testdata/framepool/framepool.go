// Package framepool is the analysistest fixture for the framepool
// analyzer: each function is one positive (flagged, marked with a `want`
// comment) or negative (clean) ownership scenario. The package is under
// testdata so `./...` builds and lints skip it; the harness loads it by
// explicit import path.
package framepool

import (
	"stfw/internal/msg"
	"stfw/internal/transport/udpnet"
)

// comm has the transport Send shape ownership transfers through.
type comm struct{}

func (comm) Send(to, tag int, payload []byte) error { return nil }

// sink is a cross-package stand-in with a different shape: not a release.
var sink func([]byte)

// --- negative cases: the canonical disciplines must stay silent ---

func okPutAfterUse(n int) int {
	buf := msg.GetFrameLen(n)
	total := 0
	for _, b := range buf {
		total += int(b)
	}
	msg.PutFrame(buf)
	return total
}

func okSendThenConditionalPut(c comm, retains bool, n int) error {
	buf := msg.GetFrameCap(n)
	err := c.Send(1, 7, buf)
	if !retains {
		msg.PutFrame(buf)
	}
	return err
}

func okMintIntoSend(c comm, m *msg.Message) error {
	return c.Send(1, 7, msg.Encode(msg.GetFrameCap(msg.EncodedSize(m)), m))
}

func okReturnTransfersOwnership(n int) []byte {
	buf := msg.GetFrameLen(n)
	return buf
}

func okEscapeIntoStruct(n int) {
	type frameHolder struct{ b []byte }
	holders := []frameHolder{{b: msg.GetFrameLen(n)}}
	_ = holders
}

func okDeferredPut(n int) int {
	buf := msg.GetFrameLen(n)
	defer msg.PutFrame(buf)
	return len(buf)
}

func okReleaseInBothBranches(cond bool, n int) {
	buf := msg.GetFrameLen(n)
	if cond {
		msg.PutFrame(buf)
	} else {
		msg.PutFrame(buf)
	}
}

func okEscapeInCondition(push func([]byte) bool, n int) {
	buf := msg.GetFrameLen(n)
	if !push(buf) { // cross-package-shaped hand-off resolves ownership
		return
	}
}

// --- positive cases ---

func badNeverReleased(n int) int {
	buf := msg.GetFrameLen(n) // want "never released"
	return len(buf)
}

func badLeakOnEarlyReturn(fill func() error, n int) error {
	buf := msg.GetFrameLen(n)
	if err := fill(); err != nil {
		return err // want "leaks on this return path"
	}
	msg.PutFrame(buf)
	return nil
}

func badOneBranchOnly(cond bool, n int) {
	buf := msg.GetFrameLen(n) // want "not released on every path"
	if cond {
		msg.PutFrame(buf)
	}
}

func badUseAfterPut(n int) int {
	buf := msg.GetFrameLen(n)
	msg.PutFrame(buf)
	return len(buf) // want "after PutFrame"
}

func badDoublePut(n int) {
	buf := msg.GetFrameLen(n)
	msg.PutFrame(buf)
	msg.PutFrame(buf) // want "double PutFrame"
}

func badPutOfFrontReslice(n int) {
	buf := msg.GetFrameLen(n)
	msg.PutFrame(buf[4:]) // want "drops the buffer's front"
}

func badDroppedResult(n int) {
	_ = msg.GetFrameLen(n) // want "dropped without PutFrame"
}

// --- udpnet PacketRing: the same single-holder discipline ---

// appendShaped is the intra-package builder shape the mint tracking climbs
// through (udpnet's buildAck): the fresh buffer flows to the result.
func appendShaped(b []byte, v byte) []byte { return append(b, v) }

func okRingGetThenPut(r *udpnet.PacketRing) int {
	b := r.Get()
	b = append(b, 1, 2, 3)
	n := len(b)
	r.Put(b)
	return n
}

func okRingPutEmptyReslice(r *udpnet.PacketRing) {
	b := r.Get()
	r.Put(b[:0])
}

func okRingMintThroughBuilder(r *udpnet.PacketRing) {
	b := appendShaped(r.Get(), 7)
	r.Put(b)
}

func okRingEscapeIntoSlot(r *udpnet.PacketRing, slots [][]byte) {
	slots[0] = r.Get() // slot owner releases it later
}

func badRingNeverReleased(r *udpnet.PacketRing) int {
	b := r.Get() // want "never released"
	return len(b)
}

func badRingLeakOnEarlyReturn(r *udpnet.PacketRing, fill func() error) error {
	b := r.Get()
	if err := fill(); err != nil {
		return err // want "leaks on this return path"
	}
	r.Put(b)
	return nil
}

func badRingOneBranchOnly(r *udpnet.PacketRing, cond bool) {
	b := r.Get() // want "not released on every path"
	if cond {
		r.Put(b)
	}
}

func badRingUseAfterPut(r *udpnet.PacketRing) int {
	b := r.Get()
	r.Put(b)
	return len(b) // want "after PutFrame"
}

func badRingDoublePut(r *udpnet.PacketRing) {
	b := r.Get()
	r.Put(b)
	r.Put(b) // want "double PutFrame"
}

func badRingPutFrontReslice(r *udpnet.PacketRing) {
	b := r.Get()
	r.Put(b[2:]) // want "drops the buffer's front"
}

// --- hierarchical mux boundary (internal/transport/hier): a frame crossing
// the composite transport resolves ownership exactly once, whichever
// sub-transport the pair rule routes it to ---

// muxComm mirrors the hier endpoint shape: Send routes to one of two
// sub-transports by destination; for ownership the route taken is
// irrelevant — one Send is one hand-off.
type muxComm struct {
	inner, outer comm
	nodeOf       func(int) int
}

func (m *muxComm) Send(to, tag int, payload []byte) error {
	if m.nodeOf(to) == m.nodeOf(0) {
		return m.inner.Send(to, tag, payload)
	}
	return m.outer.Send(to, tag, payload)
}

// The caller's view: a Send through the mux transfers ownership like any
// transport Send (the retains answer is the union of the sub-transports').
func okSendThroughMux(m *muxComm, retains bool, n int) error {
	buf := msg.GetFrameCap(n)
	err := m.Send(1, 7, buf)
	if !retains {
		msg.PutFrame(buf)
	}
	return err
}

// The mux's view: both route branches hand the frame off, so a frame
// minted for either side is resolved on every path.
func okRouteEitherSubReleases(m *muxComm, intra bool, n int) error {
	buf := msg.GetFrameCap(n)
	if intra {
		return m.inner.Send(1, 7, buf)
	}
	return m.outer.Send(2, 7, buf)
}

// The cross-sub arbitration stash: a puller that parks a pulled frame in
// the shared stash escapes it — the stash owns it until a receiver claims
// it.
type arrivalStash struct{ frames [][]byte }

func okStashArrivalOwnsFrame(s *arrivalStash, n int) {
	buf := msg.GetFrameLen(n)
	s.frames = append(s.frames, buf)
}

// A mux Send that validates the destination before routing must not strand
// the frame on the rejection path.
func badMuxValidationLeaksFrame(m *muxComm, to, n int) error {
	buf := msg.GetFrameLen(n)
	if to < 0 {
		return nil // want "leaks on this return path"
	}
	return m.Send(to, 7, buf)
}

// A puller that only stashes on its success path drops the frame when the
// pull is cancelled.
func badPullerDropsFrameOnCancel(s *arrivalStash, cancelled bool, n int) {
	buf := msg.GetFrameLen(n) // want "not released on every path"
	if !cancelled {
		s.frames = append(s.frames, buf)
	}
}

// --- interprocedural: ownership routed through same-package helpers. The
// summary engine gives each helper a ParamEffect/ReturnsOwned summary, so
// minting, releasing, and double-releasing through a helper behave exactly
// like the direct calls above ---

// mintHelper returns a fresh pooled frame: its summary marks the result
// owned, and every caller inherits the release obligation.
func mintHelper(n int) []byte {
	return msg.GetFrameLen(n)
}

// mintHelperWithErr is the tuple-shaped mint (buf, err), the common
// transport constructor signature.
func mintHelperWithErr(n int) ([]byte, error) {
	return msg.GetFrameCap(n), nil
}

// releaseHelper returns its argument to the pool: summary EffRelease.
func releaseHelper(buf []byte) {
	msg.PutFrame(buf)
}

func okMintThroughHelper(n int) {
	buf := mintHelper(n)
	msg.PutFrame(buf)
}

func okReleaseThroughHelper(n int) {
	buf := msg.GetFrameLen(n)
	releaseHelper(buf)
}

func okTupleMintReleased(n int) {
	buf, _ := mintHelperWithErr(n)
	msg.PutFrame(buf)
}

// The seeded regression: a leak the per-function pass provably missed —
// the mint is hidden behind mintHelper, so no msg.GetFrame* call appears
// in this function at all.
func badLeakThroughMintHelper(n int) int {
	buf := mintHelper(n) // want "never released"
	return len(buf)
}

func badTupleMintLeaksOnErrPath(n int) error {
	buf, err := mintHelperWithErr(n)
	if err != nil {
		return err // want "leaks on this return path"
	}
	msg.PutFrame(buf)
	return nil
}

func badDoublePutThroughHelper(n int) {
	buf := msg.GetFrameLen(n)
	releaseHelper(buf)
	msg.PutFrame(buf) // want "double PutFrame"
}

func badHelperMintOneBranchOnly(cond bool, n int) {
	buf := mintHelper(n) // want "not released on every path"
	if cond {
		releaseHelper(buf)
	}
}
