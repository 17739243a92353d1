package core

import "stfw/internal/vpt"

// synthPair identifies one (src, dst) payload pair of a synthetic pattern.
type synthPair struct{ src, dst int }

// synthWorld computes every rank's Persistent from a global pair list with
// ComputePersistent, the layout a learning run over a real transport
// records (TestSynthWorldMatchesLearned). It gives the patch tests a fast,
// deterministic ground truth: synthWorld(mutated) is what Patch-ing
// synthWorld(base) must equal, slot for slot.
func synthWorld(t *vpt.Topology, pairs map[synthPair]int) []*Persistent {
	ps := make([]*Persistent, t.Size())
	for me := range ps {
		p, err := ComputePersistent(t, me, func(src, dst int) (int, bool) {
			n, ok := pairs[synthPair{src, dst}]
			return n, ok
		})
		if err != nil {
			panic(err)
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

// synthGather builds word-aligned gather lists for a rank's destinations,
// matching the sizes the pattern records for its own pairs.
func synthGather(p *Persistent, xlen int) map[int][]int32 {
	own := p.ownPairs()
	g := make(map[int][]int32, len(own))
	for _, e := range own {
		dst := int(e.k.dst)
		idx := make([]int32, e.n/8)
		for i := range idx {
			idx[i] = int32((dst*11 + i*3) % xlen)
		}
		g[dst] = idx
	}
	return g
}

// synthPlan is the static plan of a synthetic pattern. A plan counts
// submessages, and a pair of zero bytes still travels as one, so every
// pair carries one word more than its size in words.
func synthPlan(t *vpt.Topology, pairs map[synthPair]int) *Plan {
	s := NewSendSets(t.Size())
	for pr, size := range pairs {
		s.Add(pr.src, pr.dst, 1+int64(size)/8)
	}
	if err := s.Normalize(); err != nil {
		panic(err)
	}
	p, err := BuildPlan(t, s)
	if err != nil {
		panic(err)
	}
	return p
}
