package core_test

import (
	"slices"
	"testing"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

// confWorldSendSets lifts the conformance dest-lists into normalized
// SendSets (one unit-word submessage per (src, dst) pair, exactly how the
// conformance payload maps drive the executors).
func confWorldSendSets(t *testing.T, K int, dests map[int][]int) *core.SendSets {
	t.Helper()
	s := core.NewSendSets(K)
	for src, ds := range dests {
		for _, dst := range ds {
			s.Add(src, dst, 1)
		}
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVerifyWorldFrontends runs the whole-world verifier over the two
// worlds built without communicating, on every conformance topology: the
// baseline's, one NewDirectReplay per rank against the direct plan, and
// the computed one, every rank's ComputePersistent layout lowered and held
// to the plan (VerifyLearnedWorld).
func TestVerifyWorldFrontends(t *testing.T) {
	for _, tp := range conformanceTopologies(t) {
		K := tp.Size()
		dests := confSendSets(int64(K), K)
		sends := confWorldSendSets(t, K, dests)

		dplan, err := core.BuildDirectPlan(sends)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.VerifyReplayWorld(directWorld(t, K, dests), dplan); err != nil {
			t.Errorf("direct world, K=%d: %v", K, err)
		}

		plan, err := core.BuildPlan(tp, sends)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.VerifyLearnedWorld(computedWorld(t, tp, dests), plan); err != nil {
			t.Errorf("computed world, K=%d dims=%v: %v", K, tp.Dims(), err)
		}
	}
}

// directWorld compiles every rank's baseline replay of dests: confGather's
// payloads out, one frame expected from every source, of that source's
// word count.
func directWorld(t *testing.T, K int, dests map[int][]int) []*core.Replay {
	t.Helper()
	srcWords := make([]map[int]int, K)
	for q := range srcWords {
		srcWords[q] = map[int]int{}
	}
	for src, ds := range dests {
		for _, dst := range ds {
			srcWords[dst][src] = confWords(src, dst)
		}
	}
	rs := make([]*core.Replay, K)
	for me := range rs {
		var err error
		if rs[me], err = core.NewDirectReplay(me, K, confXLen, confGather(me, dests[me]), srcWords[me]); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

// computedWorld builds every rank's layout of dests (confPayload's sizes)
// with ComputePersistent.
func computedWorld(t *testing.T, tp *vpt.Topology, dests map[int][]int) []*core.Persistent {
	t.Helper()
	size := func(src, dst int) (int, bool) {
		if !slices.Contains(dests[src], dst) {
			return 0, false
		}
		return len(confPayload(src, dst)), true
	}
	ps := make([]*core.Persistent, tp.Size())
	for me := range ps {
		var err error
		if ps[me], err = core.ComputePersistent(tp, me, size); err != nil {
			t.Fatal(err)
		}
	}
	return ps
}

// TestVerifyWorldLearned runs a real learning exchange per topology and
// checks in one call that every rank equals, slot for slot, the layout
// ComputePersistent builds from the same pattern, and that the replays the
// world runs are mutually consistent and conserve the independently
// computed static plan's submessages (VerifyLearnedWorld).
func TestVerifyWorldLearned(t *testing.T) {
	for _, tp := range conformanceTopologies(t) {
		tp := tp
		t.Run(tp.String(), func(t *testing.T) {
			t.Parallel()
			K := tp.Size()
			dests := confSendSets(int64(K), K)
			plan, err := core.BuildPlan(tp, confWorldSendSets(t, K, dests))
			if err != nil {
				t.Fatal(err)
			}
			if err := core.VerifyLearnedWorld(learnedWorld(t, tp, dests), plan); err != nil {
				t.Errorf("learned world, K=%d dims=%v: %v", K, tp.Dims(), err)
			}
		})
	}
}

// learnedWorld runs a learning exchange of dests over chanpt and returns
// every rank's Persistent.
func learnedWorld(t *testing.T, tp *vpt.Topology, dests map[int][]int) []*core.Persistent {
	t.Helper()
	K := tp.Size()
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	ps := make([]*core.Persistent, K)
	err = runtime.Run(w.Comms(), func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{}
		for _, dst := range dests[me] {
			payloads[dst] = confPayload(me, dst)
		}
		var err error
		ps[me], _, err = core.NewPersistent(c, tp, payloads)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return ps
}
