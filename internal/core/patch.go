// Incremental schedule patching: the dynamic-sparsity half of the learned
// tier. A Persistent freezes the pattern of its learning run; when the
// application's sparsity mutates (a dynamic graph gains an edge, a mesh
// refines, a rank's fanout changes), relearning from scratch costs a full
// payload-routing exchange plus a complete re-lowering. Patch applies a
// PatchDelta — the pairs transiting this rank, as discovered by the
// dynamic.Discover census — directly to the recorded layout, and
// PatchCompiled re-lowers only the dirty frames of an existing Replay.
//
// Correctness rests on one structural property of learned schedules: every
// stage sends a (possibly empty) frame to every dimension-d neighbor and
// expects one back, so pattern churn never changes the stage skeleton —
// only frame occupancy. The canonical mutation rule keeps sender and
// receiver bit-compatible without any extra communication: removals delete
// a slot in place, additions append in ascending (src, dst) order. Both
// endpoints of a frame see the same delta pairs (both lie on the pairs'
// dimension-ordered routes), so they derive identical wire layouts
// independently.
package core

import (
	"fmt"
	"sort"
	"time"

	"stfw/internal/msg"
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

// frameRef addresses one frame of the learned layout: stage d, slot j (the
// index into nbrFrames[d] for outbound frames, into inFrom[d] for inbound).
type frameRef struct{ d, j int }

// PatchStats reports what a Patch touched; PatchCompiled uses it to decide
// which compiled frames must be rebuilt versus merely refreshed.
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

	dirtyOut map[frameRef]bool
	dirtyIn  map[frameRef]bool
	// haloDirty records whether any applied pair is delivered to this rank:
	// those mutations shift the halo layout, so PatchCompiled must rebuild
	// delivery offsets (and self-scatter bindings) everywhere instead of
	// taking the frame-local fast path.
	haloDirty bool
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
// the stage machine forwards the payload along — and extracts rank me's
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

// outFrameIndex returns the index into nbrFrames[d] (equivalently, into the
// learned schedule's stage-d send slots) of the frame sent to `to`.
func (p *Persistent) outFrameIndex(d, to int) int {
	for j := range p.nbrFrames[d] {
		if p.nbrFrames[d][j].to == to {
			return j
		}
	}
	return -1
}

// inFrameIndex returns the index into inFrom[d]/inLayout[d] of the frame
// received from `from`.
func (p *Persistent) inFrameIndex(d, from int) int {
	for j, f := range p.inFrom[d] {
		if f == from {
			return j
		}
	}
	return -1
}

func containsSlot(slots []slotKey, k slotKey) bool {
	for _, s := range slots {
		if s == k {
			return true
		}
	}
	return false
}

func removeSlot(slots []slotKey, k slotKey) []slotKey {
	for i, s := range slots {
		if s == k {
			return append(slots[:i], slots[i+1:]...)
		}
	}
	return slots
}

func lessSlot(a, b slotKey) bool {
	if a.src != b.src {
		return a.src < b.src
	}
	return a.dst < b.dst
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
// next use with the new occupancy counts. The stage skeleton (who exchanges
// a frame with whom, per stage) is provably unchanged — learned schedules
// send a frame to every dimension-d neighbor whether or not it carries
// payload — so a patched world needs no re-coordination: every rank patches
// independently from the delta the census delivered to it.
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
			j := p.outFrameIndex(h.sendD, h.sendTo)
			if j < 0 || p.nbrFrames[h.sendD][j].f == nil || !containsSlot(p.nbrFrames[h.sendD][j].f.slots, k) {
				return nil, fmt.Errorf("core: patch: removal of %d->%d: slot missing from the stage-%d frame to %d",
					pr.Src, pr.Dst, h.sendD, h.sendTo)
			}
		}
		if h.recvD >= 0 {
			j := p.inFrameIndex(h.recvD, h.recvFrom)
			if j < 0 || !containsSlot(p.inLayout[h.recvD][j], k) {
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

	// Apply pass, infallible by construction. Removals first, so a resize
	// lands its slot at the frame tail on sender and receiver alike.
	st := &PatchStats{dirtyOut: make(map[frameRef]bool), dirtyIn: make(map[frameRef]bool)}
	for _, o := range removes {
		delete(p.sizes, o.k)
		if o.h.origin {
			delete(p.dests, int(o.k.dst))
		}
		if o.h.deliver {
			p.deliver = removeSlot(p.deliver, o.k)
			st.haloDirty = true
		}
		if o.h.sendD >= 0 {
			j := p.outFrameIndex(o.h.sendD, o.h.sendTo)
			nf := &p.nbrFrames[o.h.sendD][j]
			nf.f.slots = removeSlot(nf.f.slots, o.k)
			st.dirtyOut[frameRef{o.h.sendD, j}] = true
		}
		if o.h.recvD >= 0 {
			j := p.inFrameIndex(o.h.recvD, o.h.recvFrom)
			p.inLayout[o.h.recvD][j] = removeSlot(p.inLayout[o.h.recvD][j], o.k)
			st.dirtyIn[frameRef{o.h.recvD, j}] = true
		}
		st.Removed++
	}

	// Additions are grouped per frame and appended in ascending (src, dst)
	// order — the canonical rule both endpoints apply independently.
	outAdds := make(map[frameRef][]slotKey)
	inAdds := make(map[frameRef][]slotKey)
	for _, o := range adds {
		p.sizes[o.k] = o.size
		if o.h.origin {
			p.dests[int(o.k.dst)] = struct{}{}
		}
		if o.h.deliver {
			p.deliver = append(p.deliver, o.k)
			st.haloDirty = true
		}
		if o.h.sendD >= 0 {
			j := p.outFrameIndex(o.h.sendD, o.h.sendTo)
			ref := frameRef{o.h.sendD, j}
			outAdds[ref] = append(outAdds[ref], o.k)
			st.dirtyOut[ref] = true
		}
		if o.h.recvD >= 0 {
			j := p.inFrameIndex(o.h.recvD, o.h.recvFrom)
			ref := frameRef{o.h.recvD, j}
			inAdds[ref] = append(inAdds[ref], o.k)
			st.dirtyIn[ref] = true
		}
		st.Added++
	}
	for ref, ks := range outAdds {
		sort.Slice(ks, func(i, j int) bool { return lessSlot(ks[i], ks[j]) })
		nf := &p.nbrFrames[ref.d][ref.j]
		if nf.f == nil {
			nf.f = &pFrame{to: nf.to}
		}
		nf.f.slots = append(nf.f.slots, ks...)
	}
	for ref, ks := range inAdds {
		sort.Slice(ks, func(i, j int) bool { return lessSlot(ks[i], ks[j]) })
		p.inLayout[ref.d][ref.j] = append(p.inLayout[ref.d][ref.j], ks...)
	}

	// Normalize the touched frames: a drained frame reverts to the empty
	// marker (nil, matching what a learning run records).
	for ref := range st.dirtyOut {
		if nf := &p.nbrFrames[ref.d][ref.j]; nf.f != nil && len(nf.f.slots) == 0 {
			nf.f = nil
		}
	}

	// Derived state: the delivery order and destination list stay sorted,
	// and the cached schedule and Run's position table are dropped so the
	// next Run sees the new occupancy counts (Reserve values) and slot
	// positions — the stage skeleton is identical.
	sort.Slice(p.deliver, func(i, j int) bool { return lessSlot(p.deliver[i], p.deliver[j]) })
	p.destList = p.destList[:0]
	for dst := range p.dests {
		p.destList = append(p.destList, dst)
	}
	sort.Ints(p.destList)
	p.sched = nil
	p.traffic = nil // learned byte sizes changed; Traffic rebuilds on demand
	p.pos = nil
	if err := validateSchedule(p.Schedule(), me, K); err != nil {
		return nil, fmt.Errorf("core: patch: patched schedule invalid: %w", err)
	}

	dirty := make(map[int]bool, t.N())
	for ref := range st.dirtyOut {
		dirty[ref.d] = true
	}
	for ref := range st.dirtyIn {
		dirty[ref.d] = true
	}
	st.DirtyStages = len(dirty)
	st.TouchedOutFrames = len(st.dirtyOut)
	st.TouchedInFrames = len(st.dirtyIn)
	st.Elapsed = time.Since(start)
	p.tele.CountPatch(st.DirtyStages, st.Elapsed)
	return st, nil
}

// PatchCompiled re-lowers an existing Replay after a Patch, rebuilding only
// what the patch dirtied: frames whose slot lists changed get fresh
// templates (the expensive part — allocation, header encoding, payload
// zeroing), while clean frames keep their templates. When no delivery to
// this rank changed (the common transit-only case) the re-lowering is fully
// incremental: only dirty inbound frames have their offsets and retained-
// frame locations recomputed, and only clean frames that forward out of a
// dirty inbound frame have their copy-op tables re-pointed. A patch that
// touches the halo layout (a pair delivered here was added, removed, or
// resized), changes xlen, or meets a pre-cache Replay falls back to a full
// refresh walk. The receive structure (who sends what frame when, and each
// frame's retention index) is invariant under patching, so the Replay's
// steady-state allocation profile is unchanged: replaying a patched
// schedule still allocates nothing.
//
// The Replay must have been compiled from this Persistent (the stage
// skeleton and tags are cross-checked); xlen and gather carry the same
// contract as Compile, with one addition the incremental path relies on:
// gather lists for destinations untouched by the patch must be equivalent
// (same indices) to the ones the Replay currently holds — frames none of
// the patch dirtied keep their existing gather bindings. The caller
// re-sizes its halo slice to the new HaloWords. stats must come from the
// Patch call that dirtied the Replay; passing stats from an older patch (or
// patching twice without re-lowering) leaves the Replay stale — re-lower
// after every Patch.
func (p *Persistent) PatchCompiled(r *Replay, xlen int, gather map[int][]int32, stats *PatchStats) error {
	me := p.rank
	if r == nil {
		return fmt.Errorf("core: patch: nil replay")
	}
	if stats == nil {
		return fmt.Errorf("core: patch: nil patch stats")
	}
	if r.me != me || r.size != p.topo.Size() {
		return fmt.Errorf("core: patch: replay bound to rank %d of %d, persistent is rank %d of %d",
			r.me, r.size, me, p.topo.Size())
	}
	if err := p.checkGather(xlen, gather); err != nil {
		return err
	}
	sched := p.Schedule()
	if len(sched.Stages) != len(r.stages) {
		return fmt.Errorf("core: patch: replay has %d stages, schedule has %d", len(r.stages), len(sched.Stages))
	}
	if !stats.haloDirty && xlen == r.xlen && r.inLoc != nil {
		if err := p.patchCompiledFast(r, sched, gather, stats); err != nil {
			return err
		}
		r.traffic = r.computeTraffic()
		return nil
	}

	// Halo layout and self ops: delivery offsets shift whenever any
	// delivered payload is added, removed, or resized, so both are rebuilt.
	haloOff, bound, err := p.bindHalo(r, "patch", gather)
	if err != nil {
		return err
	}
	r.xlen = xlen

	inLoc := make(map[slotKey]slotLoc)
	for d := range r.stages {
		stg := &r.stages[d]
		ss := &sched.Stages[d]
		if stg.tag != ss.Tag || len(stg.frames) != len(ss.Sends) || len(stg.recvFrom) != len(ss.RecvFrom) {
			return fmt.Errorf("core: patch: replay stage %d does not match the learned schedule (was it compiled from this pattern?)", d)
		}
		for j := range ss.Sends {
			var slots []slotKey
			if nf := p.nbrFrames[d][j]; nf.f != nil {
				slots = nf.f.slots
			}
			if stats.dirtyOut[frameRef{d, j}] {
				f, err := p.compileFrame(me, ss.Sends[j].To, slots, gather, inLoc)
				if err != nil {
					return fmt.Errorf("core: patch: stage %d frame to %d: %w", d, ss.Sends[j].To, err)
				}
				stg.frames[j] = f
			} else if err := p.refreshFrameOps(&stg.frames[j], slots, gather, inLoc); err != nil {
				return fmt.Errorf("core: patch: stage %d frame to %d: %w", d, ss.Sends[j].To, err)
			}
		}
		for j := range ss.RecvFrom {
			p.layoutInbound(stg, d, j, haloOff, inLoc, bound)
		}
	}
	for _, k := range p.deliver {
		if !bound[k] {
			return fmt.Errorf("core: patch: delivery %d->%d has no inbound frame slot", k.src, k.dst)
		}
	}
	r.inLoc = inLoc
	r.traffic = r.computeTraffic()
	return nil
}

// patchCompiledFast is the transit-only re-lowering: no delivery to this
// rank changed, so the halo layout, self-scatter ops, and every clean
// inbound frame's metadata are already correct. Dirty inbound frames get
// their interior offsets (and inLoc cache entries) recomputed; outbound
// frames are recompiled when dirty and re-pointed only when they forward
// payload out of an inbound frame whose interior shifted. Everything else
// is untouched — the whole walk is O(dirty frames), not O(pattern).
func (p *Persistent) patchCompiledFast(r *Replay, sched *StageSchedule, gather map[int][]int32, stats *PatchStats) error {
	me := p.rank
	// Halo offsets are unchanged (no delivered pair mutated), but dirty
	// inbound frames still carry deliver ops whose in-frame source offsets
	// may have shifted; rebuild the offset map to re-point them.
	haloOff, _ := p.haloLayout()
	dirtyFrames := make(map[int32]bool, len(stats.dirtyIn))
	for d := range r.stages {
		stg := &r.stages[d]
		ss := &sched.Stages[d]
		if stg.tag != ss.Tag || len(stg.frames) != len(ss.Sends) || len(stg.recvFrom) != len(ss.RecvFrom) {
			return fmt.Errorf("core: patch: replay stage %d does not match the learned schedule (was it compiled from this pattern?)", d)
		}
		for j := range ss.RecvFrom {
			if !stats.dirtyIn[frameRef{d, j}] {
				continue
			}
			p.layoutInbound(stg, d, j, haloOff, r.inLoc, nil)
			dirtyFrames[stg.inIdx[j]] = true
		}
	}
	for d := range r.stages {
		stg := &r.stages[d]
		ss := &sched.Stages[d]
		for j := range ss.Sends {
			var slots []slotKey
			if nf := p.nbrFrames[d][j]; nf.f != nil {
				slots = nf.f.slots
			}
			if stats.dirtyOut[frameRef{d, j}] {
				f, err := p.compileFrame(me, ss.Sends[j].To, slots, gather, r.inLoc)
				if err != nil {
					return fmt.Errorf("core: patch: stage %d frame to %d: %w", d, ss.Sends[j].To, err)
				}
				stg.frames[j] = f
			} else if fwdsFromDirty(&stg.frames[j], dirtyFrames) {
				if err := p.refreshFrameOps(&stg.frames[j], slots, gather, r.inLoc); err != nil {
					return fmt.Errorf("core: patch: stage %d frame to %d: %w", d, ss.Sends[j].To, err)
				}
			}
		}
	}
	return nil
}

// fwdsFromDirty reports whether a clean outbound frame copies payload out
// of any inbound frame the patch shifted — the only reason a clean frame's
// op table can go stale.
func fwdsFromDirty(f *rFrame, dirty map[int32]bool) bool {
	if len(dirty) == 0 {
		return false
	}
	for i := range f.fwds {
		if dirty[f.fwds[i].frame] {
			return true
		}
	}
	return false
}

// refreshFrameOps rewrites a clean frame's payload-fill op tables in place:
// the template bytes are untouched (the frame's own wire layout did not
// change), but gather ops must re-point at the caller's current gather
// lists and forward ops at the new inbound offsets — an earlier inbound
// frame that was patched shifts the source regions of everything forwarded
// out of it. The final offset is checked against the template length, so a
// stale stats object (marking a dirtied frame clean) is caught here rather
// than corrupting payload.
func (p *Persistent) refreshFrameOps(f *rFrame, slots []slotKey, gather map[int][]int32, inLoc map[slotKey]slotLoc) error {
	me := int32(p.rank)
	f.gathers = f.gathers[:0]
	f.fwds = f.fwds[:0]
	fo := int32(msg.MsgHeaderLen)
	for _, k := range slots {
		n := int32(p.sizes[k])
		payloadOff := fo + msg.SubHeaderLen
		if k.src == me {
			f.gathers = append(f.gathers, gatherOp{off: payloadOff, idx: gather[int(k.dst)]})
		} else {
			l, ok := inLoc[k]
			if !ok {
				return fmt.Errorf("forwarded slot %d->%d not received in an earlier stage", k.src, k.dst)
			}
			f.fwds = append(f.fwds, fwdOp{dstOff: payloadOff, frame: l.frame, srcOff: l.off, n: n})
		}
		fo = payloadOff + n
	}
	if int(fo) != len(f.tmpl) {
		return fmt.Errorf("clean frame's slots lay out %d bytes, template has %d (stale patch stats?)", fo, len(f.tmpl))
	}
	return nil
}
