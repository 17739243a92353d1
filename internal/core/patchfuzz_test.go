package core

import (
	"testing"

	"stfw/internal/vpt"
)

// fuzzPatchTopology maps a selector byte onto a fixed shape set — small
// enough to keep per-input cost low, varied enough to cover single-stage
// meshes, multi-stage cubes, and mixed-radix factorizations.
func fuzzPatchTopology(sel byte) *vpt.Topology {
	var tp *vpt.Topology
	var err error
	switch sel % 4 {
	case 0:
		tp, err = vpt.NewBalanced(8, 3)
	case 1:
		tp, err = vpt.NewBalanced(8, 1)
	case 2:
		tp, err = vpt.NewBalanced(16, 2)
	default:
		tp, err = vpt.NewFactored(12, 2)
	}
	if err != nil {
		panic(err) // fixed shapes, cannot fail
	}
	return tp
}

// decodePatchMutations turns raw fuzz bytes into a mutation list, 4 bytes
// per op. Ranks are decoded over [-1, K] so out-of-range pairs are probed,
// and sizes over a window that includes negatives and zero.
func decodePatchMutations(data []byte, K int) []PatchPair {
	if len(data) > 64 {
		data = data[:64]
	}
	var muts []PatchPair
	for i := 0; i+4 <= len(data); i += 4 {
		muts = append(muts, PatchPair{
			Src:    int(data[i])%(K+2) - 1,
			Dst:    int(data[i+1])%(K+2) - 1,
			Size:   (int(data[i+2]) - 32) * 8,
			Remove: data[i+3]&1 == 1,
		})
	}
	return muts
}

// FuzzPatchSchedule drives Patch with arbitrary deltas over arbitrary
// worlds and checks its two safety contracts:
//
//  1. A rejected patch is a no-op: the rank's learned state stays
//     bit-identical (validate-then-apply, never partial application).
//  2. When every rank accepts, the patched world equals, slot for slot, a
//     world built from scratch on the mutated pattern, passes both
//     whole-world verifiers, and the incrementally re-lowered Replay equals
//     a from-scratch compile.
//
// And, implicitly: no input may panic.
func FuzzPatchSchedule(f *testing.F) {
	f.Add(byte(0), int64(1), []byte{})
	f.Add(byte(0), int64(1), []byte{0, 1, 40, 0})              // plausible add
	f.Add(byte(1), int64(2), []byte{1, 2, 0, 1})               // plausible remove
	f.Add(byte(2), int64(3), []byte{200, 200, 10, 0})          // out of range
	f.Add(byte(3), int64(4), []byte{0, 1, 5, 0, 0, 1, 5, 1})   // add+remove same pair
	f.Add(byte(0), int64(5), []byte{3, 3, 16, 0, 2, 6, 0, 16}) // self pair + zero-ish size

	f.Fuzz(func(t *testing.T, sel byte, seed int64, data []byte) {
		tp := fuzzPatchTopology(sel)
		K := tp.Size()
		base := synthBasePairs(seed%16, K)
		muts := decodePatchMutations(data, K)

		world := synthWorld(tp, base)
		pristine := synthWorld(tp, base)
		deltas := synthDeltas(tp, muts)

		const xlen = 64
		reps := make([]*Replay, K)
		for me, p := range world {
			rep, err := p.Compile(xlen, synthGather(p, xlen))
			if err != nil {
				t.Fatalf("rank %d: base compile: %v", me, err)
			}
			reps[me] = rep
		}

		stats := make([]*PatchStats, K)
		allAccepted := true
		for me, p := range world {
			st, err := p.Patch(deltas[me])
			if err != nil {
				allAccepted = false
				if cmpErr := comparePersistent(p, pristine[me]); cmpErr != nil {
					t.Fatalf("rank %d: rejected patch (%v) mutated state: %v", me, err, cmpErr)
				}
				continue
			}
			stats[me] = st
			if st.Added+st.Removed != len(deltas[me].Pairs) {
				t.Fatalf("rank %d: stats account for %d ops, delta has %d", me, st.Added+st.Removed, len(deltas[me].Pairs))
			}
		}
		if !allAccepted {
			return
		}

		// Everyone accepted ⇒ the mutation list was globally valid; the
		// patched world must equal the from-scratch world on the mutated
		// pattern and pass the whole-world gates.
		mutated := applyMutations(base, muts)
		want := synthWorld(tp, mutated)
		for me := range world {
			if err := comparePersistent(world[me], want[me]); err != nil {
				t.Fatalf("patched world differs from from-scratch world: %v", err)
			}
		}
		if err := VerifyLearnedWorld(world, synthPlan(tp, mutated)); err != nil {
			t.Fatalf("patched world fails VerifyLearnedWorld: %v", err)
		}
		for me, p := range world {
			gather := synthGather(p, xlen)
			if err := p.PatchCompiled(reps[me], xlen, gather, stats[me]); err != nil {
				t.Fatalf("rank %d: patch-compile: %v", me, err)
			}
			fresh, err := p.Compile(xlen, gather)
			if err != nil {
				t.Fatalf("rank %d: recompile: %v", me, err)
			}
			equalReplay(t, "fuzz patched vs recompiled", reps[me], fresh)
		}
	})
}
