// Incremental schedule patching: the dynamic-sparsity half of the learned
// tier. A Persistent freezes the pattern of its learning run; when the
// application's sparsity mutates (a dynamic graph gains an edge, a mesh
// refines, a rank's fanout changes), relearning from scratch costs a full
// payload-routing exchange plus a complete re-lowering. Patch applies a
// PatchDelta — the pairs transiting this rank, as discovered by the
// dynamic.Discover census — directly to the recorded layout, and
// PatchCompiled lowers the patched schedule into an existing Replay, reusing
// its buffers.
//
// Correctness rests on one structural property of learned schedules: every
// stage sends a (possibly empty) frame to every dimension-d neighbor and
// expects one back, so pattern churn never changes the stage skeleton —
// only frame occupancy. The one layout rule keeps sender and receiver
// bit-compatible without any extra communication: a frame's slots are in
// ascending (src, dst) order, as the learning run sends them. Removals
// delete a slot, additions append it, and every touched frame is sorted
// again. Both endpoints of a frame see the same delta pairs (both lie on
// the pairs' dimension-ordered routes), so they derive identical wire
// layouts independently, and a patched pattern equals the one a relearn
// of the mutated pattern records.
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
// what dynamic.Discover returns: every pair whose dimension-ordered route
// touches the rank as origin, forwarder, or destination. A delta may list
// at most one removal and one addition per (Src, Dst) pair; listing both
// resizes the pair.
type PatchDelta struct {
	Pairs []PatchPair
}

// frameRef addresses one frame of the learned layout: stage d, neighbor
// index j (into nbrFrames[d] for the outbound frame, inLayout[d] for the
// inbound one).
type frameRef struct{ d, j int }

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

// removeSlot deletes k from slots, keeping the order of the rest.
func removeSlot(slots []slotKey, k slotKey) []slotKey {
	if i := slices.Index(slots, k); i >= 0 {
		return slices.Delete(slots, i, i+1)
	}
	return slots
}

// cmpSlot orders slots by source, then destination: the order of every
// frame's slots.
func cmpSlot(a, b slotKey) int {
	return cmp.Or(cmp.Compare(a.src, b.src), cmp.Compare(a.dst, b.dst))
}

// patchOp is one validated mutation with its precomputed route involvement.
type patchOp struct {
	k    slotKey
	size int
	h    patchHops
}

// Patch applies a delta to the learned pattern in place: frame slot lists,
// inbound wire layouts, the delivery list, the destination set, and the
// recorded sizes are all updated, and the cached schedule is rebuilt on
// next use with the new occupancy counts. Every frame it touches lists its
// slots in ascending (src, dst) order again, so the patched pattern is the
// one a learning run of the mutated pattern records. The stage skeleton
// (who exchanges a frame with whom, per stage) is provably unchanged —
// learned schedules send a frame to every dimension-d neighbor whether or
// not it carries payload — so a patched world needs no re-coordination:
// every rank patches independently from the delta the census delivered to
// it.
//
// Validation happens before any mutation; on error the Persistent is
// unchanged. A patch is rejected if any pair's route does not transit this
// rank, a removal names a pair the pattern does not carry, or an addition
// names a pair it already does (without a paired removal). After a
// successful Patch, Run replays the mutated pattern and PatchCompiled
// re-lowers an existing Replay; the patched world should be re-gated
// through VerifyWorld/VerifyLearnedWorld (see the dynamic package's
// harness), which the stage skeleton's invariance makes cheap.
func (p *Persistent) Patch(delta *PatchDelta) (*PatchStats, error) {
	start := time.Now()
	if p.nbrFrames == nil {
		return nil, fmt.Errorf("core: patch: persistent has no learned pattern")
	}
	if delta == nil {
		return nil, fmt.Errorf("core: patch: nil delta")
	}
	me, t := p.rank, p.topo
	K := t.Size()

	// Validation pass: every mutation must be in range, transit this rank,
	// dedupe cleanly, and match the current pattern (removals present,
	// additions absent). Nothing is mutated until the whole delta is vetted.
	var removes, adds []patchOp
	removed := make(map[slotKey]bool)
	added := make(map[slotKey]bool)
	for _, pr := range delta.Pairs {
		if !pr.Remove {
			continue
		}
		if pr.Src < 0 || pr.Src >= K || pr.Dst < 0 || pr.Dst >= K {
			return nil, fmt.Errorf("core: patch: pair %d->%d out of range [0,%d)", pr.Src, pr.Dst, K)
		}
		k := slotKey{src: int32(pr.Src), dst: int32(pr.Dst)}
		if removed[k] {
			return nil, fmt.Errorf("core: patch: duplicate removal of %d->%d", pr.Src, pr.Dst)
		}
		removed[k] = true
		h, ok := routeHops(t, me, pr.Src, pr.Dst)
		if !ok {
			return nil, fmt.Errorf("core: patch: pair %d->%d does not transit rank %d", pr.Src, pr.Dst, me)
		}
		if _, have := p.sizes[k]; !have {
			return nil, fmt.Errorf("core: patch: removal of %d->%d, which the pattern does not carry", pr.Src, pr.Dst)
		}
		if h.sendD >= 0 {
			j := p.nbrIndex(h.sendD, h.sendTo)
			if j < 0 || p.nbrFrames[h.sendD][j].f == nil || !slices.Contains(p.nbrFrames[h.sendD][j].f.slots, k) {
				return nil, fmt.Errorf("core: patch: removal of %d->%d: slot missing from the stage-%d frame to %d",
					pr.Src, pr.Dst, h.sendD, h.sendTo)
			}
		}
		if h.recvD >= 0 {
			j := p.nbrIndex(h.recvD, h.recvFrom)
			if j < 0 || !slices.Contains(p.inLayout[h.recvD][j], k) {
				return nil, fmt.Errorf("core: patch: removal of %d->%d: slot missing from the stage-%d frame from %d",
					pr.Src, pr.Dst, h.recvD, h.recvFrom)
			}
		}
		removes = append(removes, patchOp{k: k, h: h})
	}
	for _, pr := range delta.Pairs {
		if pr.Remove {
			continue
		}
		if pr.Src < 0 || pr.Src >= K || pr.Dst < 0 || pr.Dst >= K {
			return nil, fmt.Errorf("core: patch: pair %d->%d out of range [0,%d)", pr.Src, pr.Dst, K)
		}
		if pr.Size < 0 {
			return nil, fmt.Errorf("core: patch: pair %d->%d has negative size %d", pr.Src, pr.Dst, pr.Size)
		}
		k := slotKey{src: int32(pr.Src), dst: int32(pr.Dst)}
		if added[k] {
			return nil, fmt.Errorf("core: patch: duplicate addition of %d->%d", pr.Src, pr.Dst)
		}
		added[k] = true
		h, ok := routeHops(t, me, pr.Src, pr.Dst)
		if !ok {
			return nil, fmt.Errorf("core: patch: pair %d->%d does not transit rank %d", pr.Src, pr.Dst, me)
		}
		if _, have := p.sizes[k]; have && !removed[k] {
			return nil, fmt.Errorf("core: patch: addition of %d->%d, which the pattern already carries (resize needs a paired removal)",
				pr.Src, pr.Dst)
		}
		adds = append(adds, patchOp{k: k, size: pr.Size, h: h})
	}

	// Apply pass, infallible by construction: removals delete their slot,
	// additions append theirs, and each touched frame is sorted below. A
	// resize removes before it adds, so its slot is listed once.
	st := &PatchStats{}
	dirtyOut := make(map[frameRef]bool)
	dirtyIn := make(map[frameRef]bool)
	for _, o := range removes {
		delete(p.sizes, o.k)
		if o.h.origin {
			delete(p.dests, int(o.k.dst))
		}
		if o.h.deliver {
			p.deliver = removeSlot(p.deliver, o.k)
		}
		if o.h.sendD >= 0 {
			j := p.nbrIndex(o.h.sendD, o.h.sendTo)
			nf := &p.nbrFrames[o.h.sendD][j]
			nf.f.slots = removeSlot(nf.f.slots, o.k)
			dirtyOut[frameRef{o.h.sendD, j}] = true
		}
		if o.h.recvD >= 0 {
			j := p.nbrIndex(o.h.recvD, o.h.recvFrom)
			p.inLayout[o.h.recvD][j] = removeSlot(p.inLayout[o.h.recvD][j], o.k)
			dirtyIn[frameRef{o.h.recvD, j}] = true
		}
		st.Removed++
	}
	for _, o := range adds {
		p.sizes[o.k] = o.size
		if o.h.origin {
			p.dests[int(o.k.dst)] = struct{}{}
		}
		if o.h.deliver {
			p.deliver = append(p.deliver, o.k)
		}
		if o.h.sendD >= 0 {
			j := p.nbrIndex(o.h.sendD, o.h.sendTo)
			nf := &p.nbrFrames[o.h.sendD][j]
			if nf.f == nil {
				nf.f = &pFrame{}
			}
			nf.f.slots = append(nf.f.slots, o.k)
			dirtyOut[frameRef{o.h.sendD, j}] = true
		}
		if o.h.recvD >= 0 {
			j := p.nbrIndex(o.h.recvD, o.h.recvFrom)
			p.inLayout[o.h.recvD][j] = append(p.inLayout[o.h.recvD][j], o.k)
			dirtyIn[frameRef{o.h.recvD, j}] = true
		}
		st.Added++
	}

	// Sort the touched frames; a drained outbound frame reverts to the
	// empty marker (nil, matching what a learning run records), and so
	// does a drained inbound layout.
	for ref := range dirtyOut {
		nf := &p.nbrFrames[ref.d][ref.j]
		if len(nf.f.slots) == 0 {
			nf.f = nil
			continue
		}
		slices.SortFunc(nf.f.slots, cmpSlot)
	}
	for ref := range dirtyIn {
		in := &p.inLayout[ref.d][ref.j]
		if len(*in) == 0 {
			*in = nil
			continue
		}
		slices.SortFunc(*in, cmpSlot)
	}

	// Derived state: the delivery order and destination list stay sorted,
	// the cached schedule is dropped so the next lowering sees the new
	// occupancy counts (Reserve values), and Run's replay is marked for
	// re-lowering — the stage skeleton is identical.
	slices.SortFunc(p.deliver, cmpSlot)
	p.destList = p.destList[:0]
	for dst := range p.dests {
		p.destList = append(p.destList, dst)
	}
	slices.Sort(p.destList)
	p.sched = nil
	p.lowered = false
	if err := validateSchedule(p.Schedule(), me, K); err != nil {
		return nil, fmt.Errorf("core: patch: patched schedule invalid: %w", err)
	}

	dirty := make(map[int]bool, t.N())
	for ref := range dirtyOut {
		dirty[ref.d] = true
	}
	for ref := range dirtyIn {
		dirty[ref.d] = true
	}
	st.DirtyStages = len(dirty)
	st.TouchedOutFrames = len(dirtyOut)
	st.TouchedInFrames = len(dirtyIn)
	st.Elapsed = time.Since(start)
	p.tele.CountPatch(st.DirtyStages, st.Elapsed)
	return st, nil
}

// PatchCompiled lowers the patched schedule into an existing Replay: after
// checking that r was compiled from this Persistent's skeleton (rank, world
// size, stage count and stage tags), it runs Compile's lowering, writing
// into r and reusing the capacity of its stages, op tables and receive
// metadata. xlen and gather carry Compile's contract, and the caller
// re-sizes its halo slice to the new HaloWords. Because the lowering is
// whole, r is exact after any sequence of Patch calls and any change of
// gather lists. stats is not consulted; it stays in the signature for the
// callers that pass the Patch result along. The receive structure of a
// patched schedule equals the learned one, so replaying it still allocates
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
	sched := p.Schedule()
	if len(sched.Stages) != len(r.stages) {
		return fmt.Errorf("core: patch: replay has %d stages, schedule has %d", len(r.stages), len(sched.Stages))
	}
	for d := range r.stages {
		if r.stages[d].tag != sched.Stages[d].Tag {
			return fmt.Errorf("core: patch: replay stage %d does not match the learned schedule (was it compiled from this pattern?)", d)
		}
	}
	return p.lower(r, false, xlen, gather)
}
