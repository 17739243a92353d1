package core

import (
	"fmt"
	"slices"
	"sort"

	"stfw/internal/vpt"
)

// synthPair identifies one (src, dst) payload pair of a synthetic pattern.
type synthPair struct{ src, dst int }

// synthWorld constructs every rank's Persistent directly from a global pair
// list — the same state a learning run over a real transport would record,
// but computed locally: each pair's dimension-ordered route is walked and
// its slot recorded at every hop, with slots within a frame in ascending
// (src, dst) order (the order the learning run sends and Patch keeps). This
// gives the patch tests a fast, deterministic ground truth:
// synthWorld(mutated) is what Patch-ing synthWorld(base) must equal, slot
// for slot.
func synthWorld(t *vpt.Topology, pairs map[synthPair]int) []*Persistent {
	K := t.Size()
	sorted := make([]synthPair, 0, len(pairs))
	for pr := range pairs {
		sorted = append(sorted, pr)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].src != sorted[j].src {
			return sorted[i].src < sorted[j].src
		}
		return sorted[i].dst < sorted[j].dst
	})

	ps := make([]*Persistent, K)
	for me := 0; me < K; me++ {
		p := &Persistent{
			topo:  t,
			rank:  me,
			dests: map[int]struct{}{},
			sizes: map[slotKey]int{},
		}
		// Slot sets per outbound (stage, neighbor) and inbound (stage,
		// sender) frame; ascending pair iteration yields canonical order.
		out := make([]map[int][]slotKey, t.N())
		in := make([]map[int][]slotKey, t.N())
		for d := range out {
			out[d] = map[int][]slotKey{}
			in[d] = map[int][]slotKey{}
		}
		for _, pr := range sorted {
			size := pairs[pr]
			k := slotKey{src: int32(pr.src), dst: int32(pr.dst)}
			h, involved := routeHops(t, me, pr.src, pr.dst)
			if !involved {
				continue
			}
			p.sizes[k] = size
			if h.origin {
				p.dests[pr.dst] = struct{}{}
				p.destList = append(p.destList, pr.dst)
			}
			if h.deliver {
				p.deliver = append(p.deliver, k)
			}
			if h.sendD >= 0 {
				out[h.sendD][h.sendTo] = append(out[h.sendD][h.sendTo], k)
			}
			if h.recvD >= 0 {
				in[h.recvD][h.recvFrom] = append(in[h.recvD][h.recvFrom], k)
			}
		}
		// Frame skeleton: every dimension-d neighbor in digit order, on both
		// sides, exactly like a learning run records (empty frames are nil).
		p.indexNeighborFrames()
		for d := range p.nbrFrames {
			for j := range p.nbrFrames[d] {
				nf := &p.nbrFrames[d][j]
				if slots := out[d][nf.to]; len(slots) > 0 {
					nf.f = &pFrame{slots: slots}
				}
				p.inLayout[d][j] = in[d][nf.to]
			}
		}
		ps[me] = p
	}
	return ps
}

// synthDeltas splits a global mutation list into per-rank PatchDeltas the
// way the dynamic census would: each rank receives exactly the pairs whose
// route involves it. Out-of-range pairs are handed to every rank (their
// route is undefined; Patch must reject them before routing).
func synthDeltas(t *vpt.Topology, muts []PatchPair) []*PatchDelta {
	K := t.Size()
	deltas := make([]*PatchDelta, K)
	for me := 0; me < K; me++ {
		deltas[me] = &PatchDelta{}
	}
	for _, m := range muts {
		if m.Src < 0 || m.Src >= K || m.Dst < 0 || m.Dst >= K {
			for me := 0; me < K; me++ {
				deltas[me].Pairs = append(deltas[me].Pairs, m)
			}
			continue
		}
		for me := 0; me < K; me++ {
			if _, involved := routeHops(t, me, m.Src, m.Dst); involved {
				deltas[me].Pairs = append(deltas[me].Pairs, m)
			}
		}
	}
	return deltas
}

// applyMutations produces the mutated global pair map (removes first, then
// adds — the resize convention). It assumes the mutation list is globally
// valid; callers only use it after every rank accepted its delta.
func applyMutations(pairs map[synthPair]int, muts []PatchPair) map[synthPair]int {
	out := make(map[synthPair]int, len(pairs))
	for pr, size := range pairs {
		out[pr] = size
	}
	for _, m := range muts {
		if m.Remove {
			delete(out, synthPair{m.Src, m.Dst})
		}
	}
	for _, m := range muts {
		if !m.Remove {
			out[synthPair{m.Src, m.Dst}] = m.Size
		}
	}
	return out
}

// comparePersistent checks that two ranks' learned states are equal: the
// same slot sequence in every frame, in both directions, and the same
// sizes, deliveries and destinations.
func comparePersistent(a, b *Persistent) error {
	if a.rank != b.rank {
		return fmt.Errorf("rank %d vs %d", a.rank, b.rank)
	}
	if len(a.sizes) != len(b.sizes) {
		return fmt.Errorf("rank %d: %d recorded sizes vs %d", a.rank, len(a.sizes), len(b.sizes))
	}
	for k, n := range a.sizes {
		if bn, ok := b.sizes[k]; !ok || bn != n {
			return fmt.Errorf("rank %d: size of %d->%d is %d vs %d", a.rank, k.src, k.dst, n, b.sizes[k])
		}
	}
	if !slices.Equal(a.deliver, b.deliver) {
		return fmt.Errorf("rank %d: deliver %v vs %v", a.rank, a.deliver, b.deliver)
	}
	if !slices.Equal(a.destList, b.destList) {
		return fmt.Errorf("rank %d: destinations %v vs %v", a.rank, a.destList, b.destList)
	}
	for d := range a.nbrFrames {
		if len(a.nbrFrames[d]) != len(b.nbrFrames[d]) {
			return fmt.Errorf("rank %d stage %d: %d neighbors vs %d", a.rank, d, len(a.nbrFrames[d]), len(b.nbrFrames[d]))
		}
		for j := range a.nbrFrames[d] {
			af, bf := a.nbrFrames[d][j], b.nbrFrames[d][j]
			if af.to != bf.to {
				return fmt.Errorf("rank %d stage %d slot %d: neighbor %d vs %d", a.rank, d, j, af.to, bf.to)
			}
			var as, bs []slotKey
			if af.f != nil {
				as = af.f.slots
			}
			if bf.f != nil {
				bs = bf.f.slots
			}
			if !slices.Equal(as, bs) {
				return fmt.Errorf("rank %d stage %d frame to %d: slots %v vs %v", a.rank, d, af.to, as, bs)
			}
			if !slices.Equal(a.inLayout[d][j], b.inLayout[d][j]) {
				return fmt.Errorf("rank %d stage %d frame from %d: slots %v vs %v",
					a.rank, d, af.to, a.inLayout[d][j], b.inLayout[d][j])
			}
		}
	}
	return nil
}

// synthGather builds word-aligned gather lists for a rank's destinations,
// matching the sizes the pattern records for its own pairs.
func synthGather(p *Persistent, xlen int) map[int][]int32 {
	g := make(map[int][]int32, len(p.destList))
	for _, dst := range p.destList {
		words := p.sizes[slotKey{src: int32(p.rank), dst: int32(dst)}] / 8
		idx := make([]int32, words)
		for i := range idx {
			idx[i] = int32((dst*11 + i*3) % xlen)
		}
		g[dst] = idx
	}
	return g
}
