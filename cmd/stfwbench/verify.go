package main

import (
	"fmt"
	"math/rand"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/vpt"
)

// runVerify (-verify) sweeps the whole-world verifier over the conformance
// topology set: for every shape it builds a seeded irregular traffic
// pattern and checks the programs that run it. The learned world (a real
// in-process learning exchange over chanpt) must equal, rank for rank, the
// layout core.ComputePersistent builds from the same pattern, and its
// lowered replays must carry exactly the plan's submessages
// (core.VerifyLearnedWorld). The baseline's world, one core.NewDirectReplay
// per rank, is held to the direct plan (core.VerifyReplayWorld). It prints
// one line per topology and returns an error if any world fails, making it
// a command-line regression gate for layout construction.
func runVerify() error {
	tps, err := verifyTopologies()
	if err != nil {
		return err
	}
	failed := 0
	for _, tp := range tps {
		K := tp.Size()
		sends := verifySendSets(int64(K), K)
		if err := verifyOne(tp, sends); err != nil {
			failed++
			fmt.Printf("FAIL K=%-3d dims=%v\n      %v\n", K, tp.Dims(), err)
			continue
		}
		fmt.Printf("ok   K=%-3d dims=%v  learned=computed, replays=plan, direct replays=direct plan\n", K, tp.Dims())
	}
	if failed > 0 {
		return fmt.Errorf("verify: %d of %d topologies failed", failed, len(tps))
	}
	fmt.Printf("verify: all %d topologies: learned and direct replay worlds consistent with their plans\n", len(tps))
	return nil
}

func verifyTopologies() ([]*vpt.Topology, error) {
	var tps []*vpt.Topology
	for _, K := range []int{8, 16, 64} {
		for n := 1; n <= vpt.MaxDim(K); n++ {
			tp, err := vpt.NewBalanced(K, n)
			if err != nil {
				return nil, err
			}
			tps = append(tps, tp)
		}
	}
	for _, c := range []struct{ K, n int }{{12, 2}, {18, 2}, {60, 3}} {
		tp, err := vpt.NewFactored(c.K, c.n)
		if err != nil {
			return nil, err
		}
		tps = append(tps, tp)
	}
	return tps, nil
}

// verifySendSets mirrors the conformance suite's seeded pattern: a couple
// of heavy hot-spot ranks plus light random traffic.
func verifySendSets(seed int64, K int) *core.SendSets {
	rng := rand.New(rand.NewSource(seed))
	s := core.NewSendSets(K)
	for h := 0; h < 2; h++ {
		src := rng.Intn(K)
		for dst := 0; dst < K; dst++ {
			if dst != src && rng.Intn(4) != 0 {
				s.Add(src, dst, 1)
			}
		}
	}
	for src := 0; src < K; src++ {
		for l := 0; l < 2; l++ {
			if dst := rng.Intn(K); dst != src {
				s.Add(src, dst, 1)
			}
		}
	}
	if err := s.Normalize(); err != nil {
		panic(err) // seeded generator over valid ranks cannot produce bad sets
	}
	return s
}

func verifyOne(tp *vpt.Topology, sends *core.SendSets) error {
	plan, err := core.BuildPlan(tp, sends)
	if err != nil {
		return err
	}
	learned, err := learnedWorld(tp, sends)
	if err != nil {
		return err
	}
	if err := core.VerifyLearnedWorld(learned, plan); err != nil {
		return fmt.Errorf("learned world: %w", err)
	}

	dplan, err := core.BuildDirectPlan(sends)
	if err != nil {
		return err
	}
	direct, err := directWorld(sends)
	if err != nil {
		return err
	}
	if err := core.VerifyReplayWorld(direct, dplan); err != nil {
		return fmt.Errorf("direct world: %w", err)
	}
	return nil
}

// directWorld compiles every rank's baseline replay of the send sets:
// rank r gathers each payload from its own words of x, and expects one
// frame from each source in the transpose.
func directWorld(sends *core.SendSets) ([]*core.Replay, error) {
	recv := sends.RecvSets()
	rs := make([]*core.Replay, sends.K)
	for me := range rs {
		gather := map[int][]int32{}
		xlen := 0
		for _, pr := range sends.Sets[me] {
			idx := make([]int32, pr.Words)
			for i := range idx {
				idx[i] = int32(xlen + i)
			}
			gather[pr.Dst] = idx
			xlen += len(idx)
		}
		srcWords := map[int]int{}
		for _, pr := range recv[me] {
			srcWords[pr.Dst] = int(pr.Words)
		}
		var err error
		if rs[me], err = core.NewDirectReplay(me, sends.K, xlen, gather, srcWords); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// learnedWorld runs a real learning exchange in-process and returns every
// rank's Persistent.
func learnedWorld(tp *vpt.Topology, sends *core.SendSets) ([]*core.Persistent, error) {
	K := tp.Size()
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		return nil, err
	}
	ps := make([]*core.Persistent, K)
	err = runtime.Run(w.Comms(), func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{}
		for _, pr := range sends.Sets[me] {
			payloads[pr.Dst] = make([]byte, 8*pr.Words)
		}
		var err error
		ps[me], _, err = core.NewPersistent(c, tp, payloads)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ps, nil
}
