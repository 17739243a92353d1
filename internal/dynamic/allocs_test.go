package dynamic_test

import (
	"math/rand"
	"sort"
	"testing"

	"stfw/internal/core"
	"stfw/internal/dynamic"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

// TestPatchedReplayRunAllocs gates the steady-state allocation contract
// across pattern churn: after the world's compiled replays have been through
// Discover → Patch → PatchCompiled (a full remove/add cycle of every eighth
// pair), Replay.Run must still allocate nothing.
func TestPatchedReplayRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; the gate runs in the non-race CI job")
	}
	const K, dim = 16, 2
	tp, err := vpt.NewBalanced(K, dim)
	if err != nil {
		t.Fatal(err)
	}
	pairs := basePattern(rand.New(rand.NewSource(3*K)), K)
	sorted := make([]pairKey, 0, len(pairs))
	for pr := range pairs {
		sorted = append(sorted, pr)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].src != sorted[j].src {
			return sorted[i].src < sorted[j].src
		}
		return sorted[i].dst < sorted[j].dst
	})
	removed := map[pairKey]int{}
	for pr, size := range pairs {
		removed[pr] = size
	}
	rmDeltas := make([]dynamic.Delta, K)
	addDeltas := make([]dynamic.Delta, K)
	for i := 0; i < len(sorted); i += 8 {
		pr := sorted[i]
		delete(removed, pr)
		rmDeltas[pr.src].Remove = append(rmDeltas[pr.src].Remove, pr.dst)
		addDeltas[pr.src].Add = append(addDeltas[pr.src].Add, dynamic.Announce{Dst: pr.dst, Size: pairs[pr]})
	}

	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*core.Replay, K)
	xs := make([][]float64, K)
	halos := make([][]float64, K)
	step, stop := tptest.Lockstep(w.Comms(), func(c runtime.Comm, iter int) error {
		me := c.Rank()
		if iter > 0 { // steady-state replay of the patched schedule
			return reps[me].Run(c, xs[me], halos[me])
		}
		p, _, err := core.NewPersistent(c, tp, payloadWorld(me, 0, pairs))
		if err != nil {
			return err
		}
		rep, err := p.Compile(propXlen, gatherWorld(me, pairs))
		if err != nil {
			return err
		}
		for _, cycle := range []struct {
			delta dynamic.Delta
			after map[pairKey]int
		}{{rmDeltas[me], removed}, {addDeltas[me], pairs}} {
			pd, err := dynamic.Discover(c, tp, cycle.delta)
			if err != nil {
				return err
			}
			st, err := p.Patch(pd)
			if err != nil {
				return err
			}
			if err := p.PatchCompiled(rep, propXlen, gatherWorld(me, cycle.after), st); err != nil {
				return err
			}
		}
		reps[me], xs[me], halos[me] = rep, xFor(me, 0), make([]float64, rep.HaloWords())
		return nil
	})
	defer stop()
	// Learning/patching step, then warm the pools and high-water marks.
	for i := 0; i < 4; i++ {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	var stepErr error
	avg := testing.AllocsPerRun(20, func() {
		if err := step(); err != nil && stepErr == nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		t.Fatal(stepErr)
	}
	if avg != 0 {
		t.Fatalf("patched Replay.Run allocates %.2f times per op across %d ranks, want 0", avg, K)
	}
}
