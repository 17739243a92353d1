// Package dynamic implements sparse dynamic data exchange for the
// store-and-forward runtime: discovering changed communicants without a
// full relearn, in the spirit of the NBX algorithm (Hoefler et al.) and its
// locality-aware descendants (Geyko et al., "A More Scalable Sparse Dynamic
// Data Exchange"). True NBX needs synchronous nonblocking sends and a
// nonblocking barrier, neither of which the blocking Comm abstraction
// offers — and the paper this repo reproduces argues the stronger point
// that *regularizing* irregular communication beats speculative probing.
// Discover therefore runs the census (core.Census) on the data plane's own
// routing loop: announcements ride the exact dimension-ordered store-and-
// forward routes their future payloads will take, one (possibly empty)
// frame to every dimension-d neighbor per stage, so receive counts are
// deterministic and no probing, cancellation, or consensus round is needed.
// Every rank on a pair's route — origin, forwarders, destination — learns
// of the mutation in n stages, which is exactly the set of ranks whose
// learned layout the mutation dirties: the census output is, per rank, the
// core.PatchDelta that Persistent.Patch consumes.
package dynamic

import (
	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/vpt"
)

// Announce declares one new or resized payload pair originating at the
// calling rank: Size payload bytes per iteration, destined for Dst.
type Announce struct {
	Dst  int
	Size int
}

// Delta is one rank's local view of a pattern mutation: destinations it
// will start (or resume, with a new size) sending to, and destinations it
// will stop sending to. Removing and adding the same destination resizes
// it. The zero Delta is valid: a rank with no local changes still
// participates in the collective census and learns about transiting pairs.
type Delta struct {
	Add    []Announce
	Remove []int
}

// Discover runs the sparse dynamic-discovery census: a collective,
// regularized announcement exchange over the topology's stages. Every rank
// contributes its local Delta; every rank receives back the PatchDelta of
// all pairs — its own and other ranks' — whose store-and-forward route
// transits it, sorted by (Src, Dst). The returned delta is exactly what
// Persistent.Patch on this rank needs, and the union of all ranks' returns
// covers every mutation exactly once per route hop.
//
// Discover is the Delta's conversion into the rank's own pairs; the census
// itself is core.Census, which validates them, and runs under its own tag
// range, so it can interleave with payload exchanges on the same
// communicator. It is collective: every rank of the world must call it,
// with possibly empty deltas. Cost is one frame per neighbor per stage —
// the same regular message count as a data exchange, but with 5-byte
// announcements instead of payloads.
func Discover(c runtime.Comm, t *vpt.Topology, delta Delta) (*core.PatchDelta, error) {
	me := c.Rank()
	own := make([]core.PatchPair, 0, len(delta.Remove)+len(delta.Add))
	for _, dst := range delta.Remove {
		own = append(own, core.PatchPair{Src: me, Dst: dst, Remove: true})
	}
	for _, a := range delta.Add {
		own = append(own, core.PatchPair{Src: me, Dst: a.Dst, Size: a.Size})
	}
	return core.Census(c, t, own)
}
