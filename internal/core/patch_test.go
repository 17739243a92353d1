package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stfw/internal/runtime"
	"stfw/internal/telemetry"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

func synthTopology(t *testing.T, K, n int) *vpt.Topology {
	t.Helper()
	tp, err := vpt.NewBalanced(K, n)
	if err != nil {
		tp, err = vpt.NewFactored(K, n) // non-power-of-two K
	}
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// synthBasePairs builds a seeded irregular pattern with word-aligned sizes
// (so the same base works for compiled-replay tests).
func synthBasePairs(seed int64, K int) map[synthPair]int {
	rng := rand.New(rand.NewSource(seed))
	pairs := map[synthPair]int{}
	for src := 0; src < K; src++ {
		fan := 1 + rng.Intn(4)
		for i := 0; i < fan; i++ {
			dst := rng.Intn(K)
			pairs[synthPair{src, dst}] = 8 * (1 + rng.Intn(6))
		}
	}
	return pairs
}

// TestSynthWorldMatchesLearned is ComputePersistent's contract with the
// learning run: a world learned over chanpt must equal the one synthWorld
// computes rank by rank — the same slots in the same order in every frame,
// and the same sizes, deliveries, and destinations — and both must pass
// VerifyLearnedWorld.
func TestSynthWorldMatchesLearned(t *testing.T) {
	for _, c := range []struct{ K, n int }{{8, 3}, {16, 2}, {12, 2}} {
		tp := synthTopology(t, c.K, c.n)
		pairs := synthBasePairs(int64(c.K), c.K)
		synth := synthWorld(tp, pairs)
		learned := learnPairs(t, tp, pairs)
		if err := VerifyLearnedWorld(synth); err != nil {
			t.Fatalf("K=%d: synth world fails verification: %v", c.K, err)
		}
		if err := VerifyLearnedWorld(learned); err != nil {
			t.Fatalf("K=%d: learned world fails verification: %v", c.K, err)
		}
		for me := 0; me < c.K; me++ {
			if err := comparePersistent(learned[me], synth[me]); err != nil {
				t.Fatalf("K=%d: learned world differs from synthWorld: %v", c.K, err)
			}
		}
	}
}

// learnPairs runs a learning exchange of pairs over chanpt and returns
// every rank's Persistent.
func learnPairs(t *testing.T, tp *vpt.Topology, pairs map[synthPair]int) []*Persistent {
	t.Helper()
	w, err := chanpt.NewWorld(tp.Size(), 2)
	if err != nil {
		t.Fatal(err)
	}
	learned := make([]*Persistent, tp.Size())
	err = runtime.Run(w.Comms(), func(cm runtime.Comm) error {
		payloads := map[int][]byte{}
		for pr, size := range pairs {
			if pr.src == cm.Rank() {
				payloads[pr.dst] = make([]byte, size)
			}
		}
		p, _, err := NewPersistent(cm, tp, payloads)
		learned[cm.Rank()] = p
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return learned
}

// synthMutations derives a seeded mutation list from a base pattern:
// removals of existing pairs, additions of absent ones, and resizes.
func synthMutations(seed int64, K int, pairs map[synthPair]int) []PatchPair {
	rng := rand.New(rand.NewSource(seed))
	var muts []PatchPair
	removed := map[synthPair]bool{}
	for pr := range pairs {
		switch rng.Intn(4) {
		case 0: // remove
			muts = append(muts, PatchPair{Src: pr.src, Dst: pr.dst, Remove: true})
			removed[pr] = true
		case 1: // resize
			muts = append(muts, PatchPair{Src: pr.src, Dst: pr.dst, Remove: true})
			muts = append(muts, PatchPair{Src: pr.src, Dst: pr.dst, Size: 8 * (1 + rng.Intn(6))})
			removed[pr] = true
		}
	}
	for i := 0; i < K; i++ {
		pr := synthPair{rng.Intn(K), rng.Intn(K)}
		if _, exists := pairs[pr]; exists && !removed[pr] {
			continue
		}
		if removed[pr] {
			continue // keep the mutation list one-op-per-pair beyond resizes
		}
		already := false
		for _, m := range muts {
			if !m.Remove && m.Src == pr.src && m.Dst == pr.dst {
				already = true
				break
			}
		}
		if already {
			continue
		}
		muts = append(muts, PatchPair{Src: pr.src, Dst: pr.dst, Size: 8 * (1 + rng.Intn(6))})
	}
	return muts
}

// TestPatchMatchesSynth is the core equivalence theorem, structurally: for
// seeded mutation batches over several topologies, patching every rank of
// synthWorld(base) yields exactly synthWorld(mutated) — same slots per
// frame, sizes, deliveries, destinations — and the patched world passes
// both whole-world verifiers.
func TestPatchMatchesSynth(t *testing.T) {
	for _, c := range []struct{ K, n int }{{8, 3}, {8, 1}, {16, 2}, {16, 4}, {12, 2}} {
		for seed := int64(1); seed <= 3; seed++ {
			tp := synthTopology(t, c.K, c.n)
			base := synthBasePairs(seed, c.K)
			muts := synthMutations(seed*100, c.K, base)
			world := synthWorld(tp, base)
			deltas := synthDeltas(tp, muts)
			for me, p := range world {
				st, err := p.Patch(deltas[me])
				if err != nil {
					t.Fatalf("K=%d n=%d seed=%d rank %d: patch rejected: %v", c.K, c.n, seed, me, err)
				}
				if st.Added+st.Removed != len(deltas[me].Pairs) {
					t.Fatalf("K=%d rank %d: stats count %d+%d ops, delta has %d",
						c.K, me, st.Added, st.Removed, len(deltas[me].Pairs))
				}
				if st.DirtyStages > tp.N() {
					t.Fatalf("K=%d rank %d: %d dirty stages of %d", c.K, me, st.DirtyStages, tp.N())
				}
			}
			want := synthWorld(tp, applyMutations(base, muts))
			for me := range world {
				if err := comparePersistent(world[me], want[me]); err != nil {
					t.Fatalf("K=%d n=%d seed=%d: patched world differs from relearned: %v", c.K, c.n, seed, err)
				}
			}
			if err := VerifyWorld(LearnedWorldSchedules(world)); err != nil {
				t.Fatalf("K=%d n=%d seed=%d: patched world fails VerifyWorld: %v", c.K, c.n, seed, err)
			}
			if err := VerifyLearnedWorld(world); err != nil {
				t.Fatalf("K=%d n=%d seed=%d: patched world fails VerifyLearnedWorld: %v", c.K, c.n, seed, err)
			}
			// Reserve counts in the rebuilt schedule must equal the new slot
			// counts — stale counts would under-reserve replay frames.
			for me, p := range world {
				sched := p.Schedule()
				for d, ss := range sched.Stages {
					for j, s := range ss.Sends {
						if n := len(p.outs[d][j]); s.Reserve != n {
							t.Fatalf("K=%d rank %d stage %d: Reserve %d for %d slots", c.K, me, d, s.Reserve, n)
						}
					}
				}
			}
		}
	}
}

// TestPatchRejectLeavesUnchanged drives every rejection path and proves the
// Persistent is bit-identical to an untouched twin afterwards — Patch
// validates the whole delta before mutating anything.
func TestPatchRejectLeavesUnchanged(t *testing.T) {
	tp := synthTopology(t, 8, 3)
	base := synthBasePairs(1, 8)
	// Pick an existing pair and an absent one for the scenarios.
	var have synthPair
	for pr := range base {
		if pr.src != pr.dst {
			have = pr
			break
		}
	}
	absent := synthPair{-1, -1}
	for s := 0; s < 8 && absent.src < 0; s++ {
		for d := 0; d < 8; d++ {
			if _, ok := base[synthPair{s, d}]; !ok && s != d {
				absent = synthPair{s, d}
				break
			}
		}
	}
	cases := []struct {
		name  string
		rank  int
		delta PatchDelta
	}{
		{"remove-absent", absent.src, PatchDelta{Pairs: []PatchPair{{Src: absent.src, Dst: absent.dst, Remove: true}}}},
		{"add-existing", have.src, PatchDelta{Pairs: []PatchPair{{Src: have.src, Dst: have.dst, Size: 8}}}},
		{"dup-remove", have.src, PatchDelta{Pairs: []PatchPair{
			{Src: have.src, Dst: have.dst, Remove: true}, {Src: have.src, Dst: have.dst, Remove: true}}}},
		{"dup-add", absent.src, PatchDelta{Pairs: []PatchPair{
			{Src: absent.src, Dst: absent.dst, Size: 8}, {Src: absent.src, Dst: absent.dst, Size: 16}}}},
		{"out-of-range", 0, PatchDelta{Pairs: []PatchPair{{Src: 0, Dst: 99, Size: 8}}}},
		{"negative-size", absent.src, PatchDelta{Pairs: []PatchPair{{Src: absent.src, Dst: absent.dst, Size: -8}}}},
		// A mixed delta: one valid removal plus one invalid op. The valid
		// half must NOT be applied.
		{"valid-plus-invalid", have.src, PatchDelta{Pairs: []PatchPair{
			{Src: have.src, Dst: have.dst, Remove: true}, {Src: 0, Dst: 99, Size: 8}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			world := synthWorld(tp, base)
			fresh := synthWorld(tp, base)
			p := world[tc.rank]
			if _, err := p.Patch(&tc.delta); err == nil {
				t.Fatalf("patch accepted an invalid delta")
			}
			if err := comparePersistent(p, fresh[tc.rank]); err != nil {
				t.Fatalf("rejected patch mutated state: %v", err)
			}
			// The cached schedule must still replay-validate.
			if err := validateSchedule(p.Schedule(), tc.rank, 8); err != nil {
				t.Fatalf("schedule after rejected patch: %v", err)
			}
		})
	}

	// Not-transiting: find a pair and a rank off its route.
	t.Run("not-transiting", func(t *testing.T) {
		world := synthWorld(tp, base)
		fresh := synthWorld(tp, base)
		for me := 0; me < 8; me++ {
			if _, involved := routeHops(tp, me, absent.src, absent.dst); involved {
				continue
			}
			p := world[me]
			if _, err := p.Patch(&PatchDelta{Pairs: []PatchPair{{Src: absent.src, Dst: absent.dst, Size: 8}}}); err == nil {
				t.Fatalf("rank %d accepted a pair whose route does not transit it", me)
			}
			if err := comparePersistent(p, fresh[me]); err != nil {
				t.Fatalf("rejected patch mutated state: %v", err)
			}
			return
		}
		t.Skip("every rank lies on the route for this shape")
	})
}

// TestPatchResizeKeepsFramesSorted pins the layout rule under a resize: a
// paired remove+add keeps the pair's one row of the table, at its place in
// ascending (src, dst) order, with the new size, on every rank of its
// route; every table and every derived frame of the patched world stays
// strictly ascending, and the world equals synthWorld of the resized
// pattern row for row.
func TestPatchResizeKeepsFramesSorted(t *testing.T) {
	tp := synthTopology(t, 8, 3)
	base := synthBasePairs(2, 8)
	// Resize the first slot of the first frame that carries more than one:
	// under the layout rule it keeps its place at the head of that frame,
	// where a slot appended at the tail would break the order.
	world := synthWorld(tp, base)
	var pr synthPair
	found := false
search:
	for _, p := range world {
		for _, row := range p.outs {
			for _, rows := range row {
				if len(rows) > 1 {
					k := p.pairs[rows[0]].k
					pr, found = synthPair{int(k.src), int(k.dst)}, true
					break search
				}
			}
		}
	}
	if !found {
		t.Fatal("no frame carries more than one slot")
	}
	muts := []PatchPair{
		{Src: pr.src, Dst: pr.dst, Remove: true},
		{Src: pr.src, Dst: pr.dst, Size: 8 * 7},
	}
	deltas := synthDeltas(tp, muts)
	k := slotKey{src: int32(pr.src), dst: int32(pr.dst)}
	for me, p := range world {
		if len(deltas[me].Pairs) == 0 {
			continue
		}
		if _, err := p.Patch(deltas[me]); err != nil {
			t.Fatalf("rank %d: %v", me, err)
		}
		if i, ok := p.findPair(k); !ok || p.pairs[i].n != 8*7 {
			t.Fatalf("rank %d: resized pair's row %v, want %d bytes", me, p.pairs, 8*7)
		}
	}
	for me, p := range world {
		if !strictlyAscending(p, nil) {
			t.Fatalf("rank %d: pair table not strictly ascending: %v", me, p.pairs)
		}
		for d := range p.outs {
			for j := range p.outs[d] {
				for _, f := range []struct {
					dir  string
					rows []int32
				}{{"to", p.outs[d][j]}, {"from", p.ins[d][j]}} {
					if !strictlyAscending(p, f.rows) {
						t.Fatalf("rank %d stage %d frame %s neighbor %d not strictly ascending: %v", me, d, f.dir, j, f.rows)
					}
				}
			}
		}
	}
	want := synthWorld(tp, applyMutations(base, muts))
	for me := range world {
		if err := comparePersistent(world[me], want[me]); err != nil {
			t.Fatalf("resized world differs from synthWorld: %v", err)
		}
	}
	if err := VerifyLearnedWorld(world); err != nil {
		t.Fatal(err)
	}
}

// strictlyAscending reports whether the pairs of rows (the whole table
// when rows is nil) are in strictly ascending (src, dst) order: the layout
// rule, with no pair listed twice.
func strictlyAscending(p *Persistent, rows []int32) bool {
	if rows == nil {
		rows = make([]int32, len(p.pairs))
		for i := range rows {
			rows[i] = int32(i)
		}
	}
	for i := 1; i < len(rows); i++ {
		if p.pairs[rows[i-1]].k.word() >= p.pairs[rows[i]].k.word() {
			return false
		}
	}
	return true
}

// equalReplay compares two compiled replays structurally: frame sizes and
// submessage counts, op tables (gather and self index lists by content),
// inbound metadata, halo shape.
func equalReplay(t *testing.T, label string, a, b *Replay) {
	t.Helper()
	if a.haloBytes != b.haloBytes || a.xlen != b.xlen {
		t.Fatalf("%s: halo %d/%d bytes, xlen %d/%d", label, a.haloBytes, b.haloBytes, a.xlen, b.xlen)
	}
	if len(a.selfs) != len(b.selfs) {
		t.Fatalf("%s: %d self ops vs %d", label, len(a.selfs), len(b.selfs))
	}
	for i := range a.selfs {
		as, bs := a.selfs[i], b.selfs[i]
		if as.at != bs.at || as.pay != bs.pay || !slices.Equal(as.idx, bs.idx) {
			t.Fatalf("%s: self op %d differs", label, i)
		}
	}
	if len(a.stages) != len(b.stages) {
		t.Fatalf("%s: %d stages vs %d", label, len(a.stages), len(b.stages))
	}
	for d := range a.stages {
		as, bs := &a.stages[d], &b.stages[d]
		if as.tag != bs.tag || len(as.frames) != len(bs.frames) {
			t.Fatalf("%s: stage %d shape differs", label, d)
		}
		for j := range as.frames {
			af, bf := &as.frames[j], &bs.frames[j]
			if af.to != bf.to {
				t.Fatalf("%s: stage %d frame %d to %d vs %d", label, d, j, af.to, bf.to)
			}
			if af.size != bf.size || af.nsubs != bf.nsubs {
				t.Fatalf("%s: stage %d frame to %d: %d bytes/%d subs vs %d/%d", label, d, af.to, af.size, af.nsubs, bf.size, bf.nsubs)
			}
			if len(af.gathers) != len(bf.gathers) || len(af.fwds) != len(bf.fwds) {
				t.Fatalf("%s: stage %d frame to %d: op tables differ", label, d, af.to)
			}
			for i := range af.gathers {
				ag, bg := af.gathers[i], bf.gathers[i]
				if ag.off != bg.off || ag.dst != bg.dst || ag.pay != bg.pay || !slices.Equal(ag.idx, bg.idx) {
					t.Fatalf("%s: stage %d frame to %d: gather op %d differs", label, d, af.to, i)
				}
			}
			for i := range af.fwds {
				if af.fwds[i] != bf.fwds[i] {
					t.Fatalf("%s: stage %d frame to %d: fwd op %d differs", label, d, af.to, i)
				}
			}
		}
		if len(as.recvFrom) != len(bs.recvFrom) {
			t.Fatalf("%s: stage %d inbound shape differs", label, d)
		}
		for j := range as.recvFrom {
			ai, bi := &as.ins[j], &bs.ins[j]
			if as.recvFrom[j] != bs.recvFrom[j] || ai.idx != bi.idx || ai.size != bi.size || ai.nsubs != bi.nsubs {
				t.Fatalf("%s: stage %d inbound frame %d metadata differs", label, d, j)
			}
			if !slices.Equal(ai.delivers, bi.delivers) {
				t.Fatalf("%s: stage %d inbound frame %d deliver ops differ", label, d, j)
			}
		}
	}
}

// TestPatchCompiledMatchesRecompile proves the in-place lowering exact:
// after a Patch, PatchCompiled must leave the Replay structurally identical
// to compiling the patched Persistent from scratch.
func TestPatchCompiledMatchesRecompile(t *testing.T) {
	const xlen = 128
	for _, c := range []struct{ K, n int }{{8, 3}, {16, 2}, {12, 2}} {
		tp := synthTopology(t, c.K, c.n)
		base := synthBasePairs(int64(c.K)+10, c.K)
		muts := synthMutations(int64(c.K)*7, c.K, base)
		world := synthWorld(tp, base)
		deltas := synthDeltas(tp, muts)
		for me, p := range world {
			rep, err := p.Compile(xlen, synthGather(p, xlen))
			if err != nil {
				t.Fatalf("K=%d rank %d: compile: %v", c.K, me, err)
			}
			st, err := p.Patch(deltas[me])
			if err != nil {
				t.Fatalf("K=%d rank %d: patch: %v", c.K, me, err)
			}
			gather := synthGather(p, xlen) // destinations may have changed
			if err := p.PatchCompiled(rep, xlen, gather, st); err != nil {
				t.Fatalf("K=%d rank %d: patch-compile: %v", c.K, me, err)
			}
			fresh, err := p.Compile(xlen, gather)
			if err != nil {
				t.Fatalf("K=%d rank %d: recompile: %v", c.K, me, err)
			}
			equalReplay(t, "patched vs recompiled", rep, fresh)
		}
	}
}

// absentMultiHopPairs returns the first n pairs, in (src, dst) order, that
// base does not carry and whose route corrects every digit, so every stage
// has a forwarder that neither originates nor receives the payload.
func absentMultiHopPairs(tp *vpt.Topology, base map[synthPair]int, n int) []synthPair {
	var out []synthPair
	for src := 0; src < tp.Size() && len(out) < n; src++ {
		for dst := 0; dst < tp.Size() && len(out) < n; dst++ {
			if _, ok := base[synthPair{src, dst}]; ok {
				continue
			}
			multiHop := true
			for d := 0; d < tp.N(); d++ {
				multiHop = multiHop && tp.Digit(src, d) != tp.Digit(dst, d)
			}
			if multiHop {
				out = append(out, synthPair{src, dst})
			}
		}
	}
	return out
}

// shiftGather returns gather with every index moved one place along x:
// the same destinations and sizes, different words.
func shiftGather(gather map[int][]int32, xlen int) map[int][]int32 {
	out := make(map[int][]int32, len(gather))
	for dst, idx := range gather {
		moved := make([]int32, len(idx))
		for i, g := range idx {
			moved[i] = (g + 1) % int32(xlen)
		}
		out[dst] = moved
	}
	return out
}

// replayHalos runs every rank's Replay once on a chanpt world, over an x
// whose words are distinct across ranks, and returns the halos.
func replayHalos(t *testing.T, reps []*Replay, xlen int) [][]float64 {
	t.Helper()
	w, err := chanpt.NewWorld(len(reps), 2)
	if err != nil {
		t.Fatal(err)
	}
	halos := make([][]float64, len(reps))
	err = w.Run(func(c runtime.Comm) error {
		me := c.Rank()
		x := make([]float64, xlen)
		for i := range x {
			x[i] = float64(me)*1e4 + float64(i) + 0.5
		}
		halos[me] = make([]float64, reps[me].HaloWords())
		return reps[me].Run(c, x, halos[me])
	})
	if err != nil {
		t.Fatal(err)
	}
	return halos
}

// TestPatchCompiledFreshInputs holds PatchCompiled to a fresh Compile on
// the inputs a partial re-lowering gets wrong: (a) a patch that only
// transits most ranks, re-lowered with new gather indices for destinations
// the patch did not touch, and (b) two Patch calls re-lowered once, given
// the second call's stats. Either way the Replay must equal a from-scratch
// compile and replay the same halos on a live world.
func TestPatchCompiledFreshInputs(t *testing.T) {
	const K, n, xlen = 16, 2, 96
	tp := synthTopology(t, K, n)
	base := synthBasePairs(7, K)
	add := absentMultiHopPairs(tp, base, 2)
	if len(add) < 2 {
		t.Fatal("pattern leaves no absent multi-hop pairs")
	}
	adds := func(prs ...synthPair) []PatchPair {
		var muts []PatchPair
		for _, pr := range prs {
			muts = append(muts, PatchPair{Src: pr.src, Dst: pr.dst, Size: 24})
		}
		return muts
	}
	for _, c := range []struct {
		name    string
		patches [][]PatchPair
		shift   bool
	}{
		{"transit-only-new-gather", [][]PatchPair{adds(add[0])}, true},
		{"two-patches-one-lowering", [][]PatchPair{adds(add[0]), adds(add[1])}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			world := synthWorld(tp, base)
			reps := make([]*Replay, K)
			for me, p := range world {
				var err error
				if reps[me], err = p.Compile(xlen, synthGather(p, xlen)); err != nil {
					t.Fatalf("rank %d: compile: %v", me, err)
				}
			}
			stats := make([]*PatchStats, K)
			forwarders := 0
			for _, muts := range c.patches {
				deltas := synthDeltas(tp, muts)
				for me, p := range world {
					st, err := p.Patch(deltas[me])
					if err != nil {
						t.Fatalf("rank %d: patch: %v", me, err)
					}
					stats[me] = st
					if h, _ := routeHops(tp, me, muts[0].Src, muts[0].Dst); h.sendD >= 0 && h.recvD >= 0 {
						forwarders++
					}
				}
			}
			if forwarders == 0 {
				t.Fatal("no rank forwards the added pairs")
			}
			fresh := make([]*Replay, K)
			for me, p := range world {
				gather := synthGather(p, xlen)
				if c.shift {
					gather = shiftGather(gather, xlen)
				}
				if err := p.PatchCompiled(reps[me], xlen, gather, stats[me]); err != nil {
					t.Fatalf("rank %d: patch-compile: %v", me, err)
				}
				var err error
				if fresh[me], err = p.Compile(xlen, gather); err != nil {
					t.Fatalf("rank %d: recompile: %v", me, err)
				}
				equalReplay(t, fmt.Sprintf("rank %d patched vs recompiled", me), reps[me], fresh[me])
			}
			got, want := replayHalos(t, reps, xlen), replayHalos(t, fresh, xlen)
			for me := range want {
				if !slices.Equal(got[me], want[me]) {
					t.Fatalf("rank %d: patched replay halo %v, fresh compile %v", me, got[me], want[me])
				}
			}
		})
	}
}

// churnPairs draws the churn-chan benchmark workload's pattern: 8 random
// destinations per rank, each payload 32–255 words. order lists the pairs
// in the order they were drawn.
func churnPairs(rng *rand.Rand, K int) (pairs map[synthPair]int, order []synthPair) {
	const dests = 8
	pairs = map[synthPair]int{}
	for src := 0; src < K; src++ {
		for fan := 0; fan < dests; {
			pr := synthPair{src, rng.Intn(K)}
			if _, dup := pairs[pr]; dup || pr.dst == src {
				continue
			}
			pairs[pr] = 8 * (32 + rng.Intn(224))
			order = append(order, pr)
			fan++
		}
	}
	return pairs, order
}

// BenchmarkPatchCompiled times a whole patch round of a world — Patch,
// which edits each rank's frames in place, then the lowering of the
// patched schedule into the rank's existing Replay — in the shape of the
// churn-chan benchmark workload: K=64 on T3(4,4,4), 8 destinations ×
// 32–255 words per rank, 8 pairs toggled per round (removed, then
// re-added). One op is one Patch and one PatchCompiled on every rank.
//
//	go test -run '^$' -bench PatchCompiled -benchmem -cpuprofile cpu.out ./internal/core/
func BenchmarkPatchCompiled(b *testing.B) {
	const K, xlen, toggles = 64, 256, 8
	tp := vpt.MustNew(4, 4, 4)
	rng := rand.New(rand.NewSource(K))
	pairs, order := churnPairs(rng, K)
	// deltas[ph] moves every rank into phase ph: 1 removes the toggled
	// pairs, 0 re-adds them.
	var remove, readd []PatchPair
	for _, i := range rng.Perm(len(order))[:toggles] {
		pr := order[i]
		remove = append(remove, PatchPair{Src: pr.src, Dst: pr.dst, Remove: true})
		readd = append(readd, PatchPair{Src: pr.src, Dst: pr.dst, Size: pairs[pr]})
	}
	deltas := [2][]*PatchDelta{synthDeltas(tp, readd), synthDeltas(tp, remove)}
	worlds := [2][]*Persistent{synthWorld(tp, pairs), synthWorld(tp, applyMutations(pairs, remove))}
	var gathers [2][]map[int][]int32
	for ph := range worlds {
		for _, p := range worlds[ph] {
			gathers[ph] = append(gathers[ph], synthGather(p, xlen))
		}
	}

	ps := worlds[0]
	reps := make([]*Replay, K)
	for me, p := range ps {
		var err error
		if reps[me], err = p.Compile(xlen, gathers[0][me]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph := 1 - i%2
		for me, p := range ps {
			st, err := p.Patch(deltas[ph][me])
			if err != nil {
				b.Fatal(err)
			}
			if err := p.PatchCompiled(reps[me], xlen, gathers[ph][me], st); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*K), "ns/rank")
}

// TestPatchEmptyDeltaKeepsLayout: in the churn shape most ranks get an
// empty delta each round, and Patch of one changes nothing. The rank keeps
// its Schedule pointer and Run's lowered replay, the patch is still
// counted, and it allocates no more than the PatchStats it returns.
func TestPatchEmptyDeltaKeepsLayout(t *testing.T) {
	tp := vpt.MustNew(4, 4, 4)
	pairs, _ := churnPairs(rand.New(rand.NewSource(64)), 64)
	p := synthWorld(tp, pairs)[0]
	reg, err := telemetry.New(telemetry.Config{Ranks: 64, Stages: tp.N()})
	if err != nil {
		t.Fatal(err)
	}
	p.Instrument(reg.Rank(0))
	rp, err := p.replay()
	if err != nil {
		t.Fatal(err)
	}
	sched := p.Schedule()
	empty := &PatchDelta{}
	st, err := p.Patch(empty)
	if err != nil {
		t.Fatal(err)
	}
	if *st != (PatchStats{Elapsed: st.Elapsed}) {
		t.Errorf("empty delta reports %+v", st)
	}
	if p.Schedule() != sched || !p.lowered || p.rp != rp {
		t.Error("empty delta dropped the schedule or Run's lowered replay")
	}
	if n := reg.Snapshot().Ranks[0].Patches; n != 1 {
		t.Errorf("telemetry counts %d patches, want 1", n)
	}
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Patch(empty); err != nil {
			t.Fatal(err)
		}
		p.Schedule()
	}); allocs > 1 {
		t.Errorf("empty Patch and Schedule allocate %v times, want at most 1 (the PatchStats)", allocs)
	}
}

// TestPatchTelemetry checks the patch counters land on the rank collector
// and survive a snapshot.
func TestPatchTelemetry(t *testing.T) {
	tp := synthTopology(t, 8, 3)
	base := synthBasePairs(5, 8)
	world := synthWorld(tp, base)
	reg, err := telemetry.New(telemetry.Config{Ranks: 8, Stages: tp.N()})
	if err != nil {
		t.Fatal(err)
	}
	var pr synthPair
	for cand := range base {
		if cand.src != cand.dst {
			pr = cand
			break
		}
	}
	muts := []PatchPair{{Src: pr.src, Dst: pr.dst, Remove: true}}
	deltas := synthDeltas(tp, muts)
	patched := 0
	for me, p := range world {
		p.Instrument(reg.Rank(me))
		if len(deltas[me].Pairs) == 0 {
			continue
		}
		if _, err := p.Patch(deltas[me]); err != nil {
			t.Fatalf("rank %d: %v", me, err)
		}
		patched++
	}
	snap := reg.Snapshot()
	var patches, dirty int64
	for _, r := range snap.Ranks {
		patches += r.Patches
		dirty += r.PatchDirtyStages
	}
	if patches != int64(patched) {
		t.Fatalf("snapshot records %d patches, want %d", patches, patched)
	}
	if dirty == 0 {
		t.Fatal("snapshot records zero dirty stages across all patches")
	}
	// The nil collector must stay a no-op.
	var nilRank *telemetry.Rank
	nilRank.CountPatch(3, 0)
}
