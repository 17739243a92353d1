// Incremental layout patching: the dynamic-sparsity half of the learned
// tier. A Persistent freezes the pattern of its learning run; when the
// application's sparsity mutates (a dynamic graph gains an edge, a mesh
// refines, a rank's fanout changes), relearning from scratch costs a full
// payload-routing exchange plus a complete re-lowering. Patch applies a
// PatchDelta — the pairs transiting this rank, as discovered by the
// census (Census, behind dynamic.Discover) — to the rank's pair table,
// and PatchCompiled lowers the patched layout into an existing Replay,
// reusing its buffers.
//
// Correctness rests on one structural property of store-and-forward
// programs: every stage sends a (possibly empty) frame to every
// dimension-d neighbor and expects one back, so pattern churn never
// changes the stage skeleton — only frame occupancy. Patch is validate → merge into the table → derive:
// the layout is a function of the table (every frame lists its pairs in
// ascending (src, dst) order), and both endpoints of a frame see the same
// delta pairs (both lie on the pairs' dimension-ordered routes), so they
// derive identical wire layouts independently, and a patched pattern
// equals the one a relearn of the mutated pattern records.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"stfw/internal/vpt"
)

// PatchPair is one mutation of a learned pattern: the (Src, Dst) payload
// pair being added, removed, or — as a remove plus an add of the same pair
// — resized. Size is the new payload byte length (ignored for removals).
type PatchPair struct {
	Src, Dst int
	Size     int
	Remove   bool
}

// PatchDelta is the set of pattern mutations that transit one rank. It is
// what Census (and so dynamic.Discover) returns: every pair whose
// dimension-ordered route touches the rank as origin, forwarder, or
// destination, sorted by (Src, Dst), a removal before an addition. A delta
// may list at most one removal and one addition per (Src, Dst) pair;
// listing both resizes the pair.
type PatchDelta struct {
	Pairs []PatchPair
}

// PatchStats reports what a Patch touched.
type PatchStats struct {
	// Added and Removed count applied pair mutations (a resize counts once
	// in each).
	Added, Removed int
	// DirtyStages counts stages with at least one touched frame.
	DirtyStages int
	// TouchedOutFrames and TouchedInFrames count frames whose slot lists
	// changed, on the send and receive side respectively.
	TouchedOutFrames, TouchedInFrames int
	// Elapsed is the wall-clock duration of the Patch call.
	Elapsed time.Duration
}

// patchHops is rank me's involvement in the dimension-ordered route of one
// (src, dst) pair: whether me originates or receives the payload, and the
// stage/peer of the hop that leaves (sendD/sendTo) or enters (recvD/
// recvFrom) this rank. A dimension index of -1 means no such hop.
type patchHops struct {
	origin, deliver bool
	sendD, sendTo   int
	recvD, recvFrom int
}

// routeHops walks the digit-correction route of (src, dst) — the exact path
// the learning run forwards the payload along — and extracts rank me's
// hops. The second result reports whether the route involves me at all.
func routeHops(t *vpt.Topology, me, src, dst int) (patchHops, bool) {
	h := patchHops{origin: src == me, deliver: dst == me, sendD: -1, recvD: -1}
	involved := h.origin || h.deliver
	cur := src
	for d := 0; d < t.N(); d++ {
		next := t.RouteNext(cur, dst, d)
		if next == cur {
			continue
		}
		if cur == me {
			h.sendD, h.sendTo = d, next
			involved = true
		}
		if next == me {
			h.recvD, h.recvFrom = d, cur
			involved = true
		}
		cur = next
	}
	return h, involved
}

// Patch applies a delta to the pair table: removals leave it, additions
// enter it at their place in (src, dst) order, a resize changes the row's
// size, and the layout is derived again from the result. So the patched
// pattern is the one a learning run of the mutated pattern records. The
// stage skeleton (who exchanges a frame with whom, per stage) is provably
// unchanged — it is the topology's: a frame to every dimension-d neighbor
// whether or not it carries payload — so a patched world needs no
// re-coordination: every rank patches independently from the delta the
// census delivered to it. An empty delta changes nothing: the layout and
// Run's lowered replay stay as they are.
//
// Validation happens before any mutation; on error the Persistent is
// unchanged. A patch is rejected if any pair's route does not transit this
// rank, a removal names a pair the pattern does not carry, or an addition
// names a pair it already does (without a paired removal). After a
// successful Patch, Run replays the mutated pattern and PatchCompiled
// re-lowers an existing Replay; a patched world can be re-gated through
// VerifyLearnedWorld against the mutated pattern's plan (see the dynamic
// package's property suite).
func (p *Persistent) Patch(delta *PatchDelta) (*PatchStats, error) {
	start := time.Now()
	if p.topo == nil {
		return nil, fmt.Errorf("core: patch: persistent has no learned pattern")
	}
	if delta == nil {
		return nil, fmt.Errorf("core: patch: nil delta")
	}
	st := &PatchStats{}
	if len(delta.Pairs) > 0 {
		if err := p.patch(delta, st); err != nil {
			return nil, err
		}
	}
	st.Elapsed = time.Since(start)
	p.tele.CountPatch(st.DirtyStages, st.Elapsed)
	return st, nil
}

// patch validates a nonempty delta, merges it into the table, derives the
// layout and fills st's counts.
func (p *Persistent) patch(delta *PatchDelta, st *PatchStats) error {
	me, t := p.rank, p.topo
	K := t.Size()

	// Validation: every mutation must be in range, transit this rank,
	// dedupe cleanly, and match the table (removals present, additions
	// absent unless also removed). The frames a mutation occupies here,
	// outFrames and inFrames (stage*K + peer), and their stages are what
	// it touches.
	var removes []slotKey
	var adds []pairEntry
	var outFrames, inFrames, stages []int
	for _, pr := range delta.Pairs {
		if pr.Src < 0 || pr.Src >= K || pr.Dst < 0 || pr.Dst >= K {
			return fmt.Errorf("core: patch: pair %d->%d out of range [0,%d)", pr.Src, pr.Dst, K)
		}
		if !pr.Remove && pr.Size < 0 {
			return fmt.Errorf("core: patch: pair %d->%d has negative size %d", pr.Src, pr.Dst, pr.Size)
		}
		h, ok := routeHops(t, me, pr.Src, pr.Dst)
		if !ok {
			return fmt.Errorf("core: patch: pair %d->%d does not transit rank %d", pr.Src, pr.Dst, me)
		}
		k := slotKey{src: int32(pr.Src), dst: int32(pr.Dst)}
		if pr.Remove {
			removes = append(removes, k)
		} else {
			adds = append(adds, pairEntry{k: k, n: int32(pr.Size)})
		}
		if h.sendD >= 0 {
			outFrames = append(outFrames, h.sendD*K+h.sendTo)
			stages = append(stages, h.sendD)
		}
		if h.recvD >= 0 {
			inFrames = append(inFrames, h.recvD*K+h.recvFrom)
			stages = append(stages, h.recvD)
		}
	}
	cmpKey := func(a, b slotKey) int { return cmp.Compare(a.word(), b.word()) }
	slices.SortFunc(removes, cmpKey)
	slices.SortFunc(adds, cmpPair)
	for i, k := range removes {
		if i > 0 && k == removes[i-1] {
			return fmt.Errorf("core: patch: duplicate removal of %d->%d", k.src, k.dst)
		}
		if _, have := p.findPair(k); !have {
			return fmt.Errorf("core: patch: removal of %d->%d, which the pattern does not carry", k.src, k.dst)
		}
	}
	for i, e := range adds {
		if i > 0 && e.k == adds[i-1].k {
			return fmt.Errorf("core: patch: duplicate addition of %d->%d", e.k.src, e.k.dst)
		}
		if _, have := p.findPair(e.k); have {
			if _, resize := slices.BinarySearchFunc(removes, e.k, cmpKey); !resize {
				return fmt.Errorf("core: patch: addition of %d->%d, which the pattern already carries (resize needs a paired removal)",
					e.k.src, e.k.dst)
			}
		}
	}

	// Merge: both the table and the delta are sorted, so one pass drops
	// the removed rows and puts every added one in its place; a resize is
	// a removed row whose addition lands where it stood.
	next := make([]pairEntry, 0, len(p.pairs)+len(adds))
	a, r := 0, 0
	for _, e := range p.pairs {
		for a < len(adds) && adds[a].k.word() < e.k.word() {
			next = append(next, adds[a])
			a++
		}
		if r < len(removes) && removes[r] == e.k {
			r++
			continue
		}
		next = append(next, e)
	}
	p.pairs = append(next, adds[a:]...)
	p.derive()
	// Run's replay is lowered again on its next use: same stage skeleton,
	// new frames.
	p.lowered = false

	st.Added, st.Removed = len(adds), len(removes)
	st.TouchedOutFrames, st.TouchedInFrames = distinct(outFrames), distinct(inFrames)
	st.DirtyStages = distinct(stages)
	return nil
}

// distinct returns how many different values xs holds, reordering xs.
func distinct(xs []int) int {
	slices.Sort(xs)
	return len(slices.Compact(xs))
}

// PatchCompiled lowers the patched layout into an existing Replay: after
// checking that r was compiled on this Persistent's skeleton (rank, world
// size, and the topology's stage count and stage tags), it runs Compile's
// lowering, writing
// into r and reusing the capacity of its stages, op tables and receive
// metadata. xlen and gather carry Compile's contract, and the caller
// re-sizes its halo slice to the new HaloWords. Because the lowering is
// whole, r is exact after any sequence of Patch calls and any change of
// gather lists. stats is not consulted; it stays in the signature for the
// callers that pass the Patch result along. The receive structure of a
// patched layout equals the learned one, so replaying it still allocates
// nothing.
func (p *Persistent) PatchCompiled(r *Replay, xlen int, gather map[int][]int32, stats *PatchStats) error {
	me := p.rank
	if r == nil {
		return fmt.Errorf("core: patch: nil replay")
	}
	if r.me != me || r.size != p.topo.Size() {
		return fmt.Errorf("core: patch: replay bound to rank %d of %d, persistent is rank %d of %d",
			r.me, r.size, me, p.topo.Size())
	}
	if len(r.stages) != p.topo.N() {
		return fmt.Errorf("core: patch: replay has %d stages, the topology %d", len(r.stages), p.topo.N())
	}
	for d := range r.stages {
		if r.stages[d].tag != StageTag(d) {
			return fmt.Errorf("core: patch: replay stage %d does not match the topology's (was it compiled from this pattern?)", d)
		}
	}
	return p.lower(r, false, xlen, gather)
}
