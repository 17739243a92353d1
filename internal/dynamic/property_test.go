// The dynamic-sparsity property suite: randomized mutation sequences
// (pair additions, removals, resizes, whole-rank fanout churn) applied via
// the full production path — NBX census (Discover) → Persistent.Patch →
// PatchCompiled — must leave every rank's replay output bit-identical to a
// world learned from scratch on the mutated pattern, on every transport.
// After every round the patched world is gated through VerifyLearnedWorld:
// every rank's pair table against the computed one, and the replays the
// world runs against each other and against an independently built static
// plan.
package dynamic_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/dynamic"
	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/transport/tptest"
	"stfw/internal/transport/udpnet"
	"stfw/internal/vpt"
)

type pairKey struct{ src, dst int }

const propXlen = 192

// gatherFor is a pure function of the pair — both the patched and the
// from-scratch world derive identical gather lists, so halo differences can
// only come from the exchange itself.
func gatherFor(src, dst, size int) []int32 {
	idx := make([]int32, size/8)
	for i := range idx {
		idx[i] = int32((src*29 + dst*13 + i*7) % propXlen)
	}
	return idx
}

func xFor(rank, round int) []float64 {
	x := make([]float64, propXlen)
	for i := range x {
		x[i] = float64(rank*propXlen+i)*1.5 + float64(round)*0.125
	}
	return x
}

// payloadFor is the map-based replay's payload: deterministic bytes so the
// patched Persistent.Run and the relearned one must deliver identical data.
func payloadFor(src, dst, size, round int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(src*31 + dst*17 + i*5 + round*101)
	}
	return b
}

func basePattern(rng *rand.Rand, K int) map[pairKey]int {
	pairs := map[pairKey]int{}
	for src := 0; src < K; src++ {
		fan := 1 + rng.Intn(3)
		for i := 0; i < fan; i++ {
			dst := rng.Intn(K)
			if dst == src {
				continue
			}
			pairs[pairKey{src, dst}] = 8 * (1 + rng.Intn(5))
		}
	}
	return pairs
}

// mutatePattern derives one round's globally valid mutation list: removals
// and resizes of existing pairs, additions of absent ones, and — every
// round — one rank's full fanout churned (all its pairs removed, a fresh
// set added), the hardest case for incremental patching.
func mutatePattern(rng *rand.Rand, K int, pairs map[pairKey]int) []core.PatchPair {
	var muts []core.PatchPair
	touched := map[pairKey]bool{}
	// Deterministic iteration: sort the existing pairs.
	existing := make([]pairKey, 0, len(pairs))
	for pr := range pairs {
		existing = append(existing, pr)
	}
	for i := range existing {
		for j := i + 1; j < len(existing); j++ {
			a, b := existing[i], existing[j]
			if b.src < a.src || (b.src == a.src && b.dst < a.dst) {
				existing[i], existing[j] = existing[j], existing[i]
			}
		}
	}
	churn := rng.Intn(K)
	for _, pr := range existing {
		if pr.src == churn {
			muts = append(muts, core.PatchPair{Src: pr.src, Dst: pr.dst, Remove: true})
			touched[pr] = true
			continue
		}
		switch rng.Intn(6) {
		case 0: // remove
			muts = append(muts, core.PatchPair{Src: pr.src, Dst: pr.dst, Remove: true})
			touched[pr] = true
		case 1: // resize
			muts = append(muts, core.PatchPair{Src: pr.src, Dst: pr.dst, Remove: true})
			muts = append(muts, core.PatchPair{Src: pr.src, Dst: pr.dst, Size: 8 * (1 + rng.Intn(5))})
			touched[pr] = true
		}
	}
	// The churned rank's fresh fanout plus scattered new pairs.
	for i := 0; i < 2+rng.Intn(2); i++ {
		dst := rng.Intn(K)
		pr := pairKey{churn, dst}
		if dst == churn || touched[pr] {
			continue
		}
		if _, exists := pairs[pr]; exists {
			continue // removed above only if src==churn; cannot happen, but keep the guard
		}
		muts = append(muts, core.PatchPair{Src: churn, Dst: dst, Size: 8 * (1 + rng.Intn(5))})
		touched[pr] = true
	}
	for i := 0; i < K/2; i++ {
		pr := pairKey{rng.Intn(K), rng.Intn(K)}
		if pr.src == pr.dst || touched[pr] {
			continue
		}
		if _, exists := pairs[pr]; exists {
			continue
		}
		muts = append(muts, core.PatchPair{Src: pr.src, Dst: pr.dst, Size: 8 * (1 + rng.Intn(5))})
		touched[pr] = true
	}
	return muts
}

func applyMuts(pairs map[pairKey]int, muts []core.PatchPair) {
	for _, m := range muts {
		if m.Remove {
			delete(pairs, pairKey{m.Src, m.Dst})
		}
	}
	for _, m := range muts {
		if !m.Remove {
			pairs[pairKey{m.Src, m.Dst}] = m.Size
		}
	}
}

func gatherWorld(me int, pairs map[pairKey]int) map[int][]int32 {
	g := map[int][]int32{}
	for pr, size := range pairs {
		if pr.src == me {
			g[pr.dst] = gatherFor(pr.src, pr.dst, size)
		}
	}
	return g
}

func payloadWorld(me, round int, pairs map[pairKey]int) map[int][]byte {
	p := map[int][]byte{}
	for pr, size := range pairs {
		if pr.src == me {
			p[pr.dst] = payloadFor(pr.src, pr.dst, size, round)
		}
	}
	return p
}

// runChurnProperty executes the harness on one world: learn a base
// pattern, then for each round discover + patch + incrementally re-lower
// and prove the replay output bit-identical to a from-scratch relearn of
// the mutated pattern, with all world verifiers green in between.
func runChurnProperty(t *testing.T, tp *vpt.Topology, comms []runtime.Comm, rounds int, seed int64) {
	t.Helper()
	K := tp.Size()
	rng := rand.New(rand.NewSource(seed))
	pairs := basePattern(rng, K)

	ps := make([]*core.Persistent, K)
	reps := make([]*core.Replay, K)
	err := runtime.Run(comms, func(c runtime.Comm) error {
		me := c.Rank()
		payloads := map[int][]byte{}
		for pr, size := range pairs {
			if pr.src == me {
				payloads[pr.dst] = make([]byte, size)
			}
		}
		p, _, err := core.NewPersistent(c, tp, payloads)
		if err != nil {
			return err
		}
		rep, err := p.Compile(propXlen, gatherWorld(me, pairs))
		if err != nil {
			return err
		}
		ps[me], reps[me] = p, rep
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= rounds; round++ {
		muts := mutatePattern(rng, K, pairs)
		applyMuts(pairs, muts)

		// Each rank announces only its own fanout changes — the census
		// spreads them to every transit rank.
		deltas := make([]dynamic.Delta, K)
		for _, m := range muts {
			if m.Remove {
				deltas[m.Src].Remove = append(deltas[m.Src].Remove, m.Dst)
			} else {
				deltas[m.Src].Add = append(deltas[m.Src].Add, dynamic.Announce{Dst: m.Dst, Size: m.Size})
			}
		}

		halos := make([][]float64, K)
		delivered := make([][]msg.Submessage, K)
		patchStats := make([]*core.PatchStats, K)
		err := runtime.Run(comms, func(c runtime.Comm) error {
			me := c.Rank()
			pd, err := dynamic.Discover(c, tp, deltas[me])
			if err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			st, err := ps[me].Patch(pd)
			if err != nil {
				return fmt.Errorf("round %d rank %d: patch: %w", round, me, err)
			}
			patchStats[me] = st
			if err := ps[me].PatchCompiled(reps[me], propXlen, gatherWorld(me, pairs), st); err != nil {
				return fmt.Errorf("round %d rank %d: patch-compile: %w", round, me, err)
			}
			halo := make([]float64, reps[me].HaloWords())
			if err := reps[me].Run(c, xFor(me, round), halo); err != nil {
				return fmt.Errorf("round %d rank %d: compiled replay: %w", round, me, err)
			}
			halos[me] = halo
			d, err := ps[me].Run(c, payloadWorld(me, round, pairs))
			if err != nil {
				return fmt.Errorf("round %d rank %d: replay: %w", round, me, err)
			}
			delivered[me] = d.Subs
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		// World gate: tables, replay consistency and conservation against
		// an independently built static plan.
		ss := core.NewSendSets(K)
		for pr, size := range pairs {
			ss.Add(pr.src, pr.dst, int64(size/8))
		}
		if err := ss.Normalize(); err != nil {
			t.Fatal(err)
		}
		plan, err := core.BuildPlan(tp, ss)
		if err != nil {
			t.Fatalf("round %d: build plan: %v", round, err)
		}
		if err := core.VerifyLearnedWorld(ps, plan); err != nil {
			t.Fatalf("round %d: VerifyLearnedWorld: %v", round, err)
		}

		// The from-scratch reference: relearn + recompile on the mutated
		// pattern, same inputs, same world. Bit-identical or bust.
		err = runtime.Run(comms, func(c runtime.Comm) error {
			me := c.Rank()
			payloads := map[int][]byte{}
			for pr, size := range pairs {
				if pr.src == me {
					payloads[pr.dst] = make([]byte, size)
				}
			}
			p2, _, err := core.NewPersistent(c, tp, payloads)
			if err != nil {
				return err
			}
			rep2, err := p2.Compile(propXlen, gatherWorld(me, pairs))
			if err != nil {
				return err
			}
			halo2 := make([]float64, rep2.HaloWords())
			if err := rep2.Run(c, xFor(me, round), halo2); err != nil {
				return err
			}
			if len(halo2) != len(halos[me]) {
				return fmt.Errorf("round %d rank %d: patched halo has %d words, relearned %d",
					round, me, len(halos[me]), len(halo2))
			}
			for i := range halo2 {
				if halos[me][i] != halo2[i] {
					return fmt.Errorf("round %d rank %d: halo[%d] = %v patched, %v relearned",
						round, me, i, halos[me][i], halo2[i])
				}
			}
			d2, err := p2.Run(c, payloadWorld(me, round, pairs))
			if err != nil {
				return err
			}
			if len(d2.Subs) != len(delivered[me]) {
				return fmt.Errorf("round %d rank %d: %d deliveries patched, %d relearned",
					round, me, len(delivered[me]), len(d2.Subs))
			}
			for i, sub := range d2.Subs {
				g := delivered[me][i]
				if g.Src != sub.Src || g.Dst != sub.Dst || !bytes.Equal(g.Data, sub.Data) {
					return fmt.Errorf("round %d rank %d delivery %d: patched (%d->%d, %x), relearned (%d->%d, %x)",
						round, me, i, g.Src, g.Dst, g.Data, sub.Src, sub.Dst, sub.Data)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		var dirty, stages int
		for _, st := range patchStats {
			dirty += st.DirtyStages
			stages += tp.N()
		}
		t.Logf("round %d: %d mutations, %d/%d stages dirty across the world", round, len(muts), dirty, stages)
	}
}

func TestDynamicPropertyChanpt(t *testing.T) {
	for _, c := range []struct{ K, n, rounds int }{{8, 3, 3}, {16, 2, 3}, {64, 3, 2}} {
		if testing.Short() && c.K > 16 {
			continue
		}
		c := c
		t.Run(fmt.Sprintf("K=%d/n=%d", c.K, c.n), func(t *testing.T) {
			t.Parallel()
			tp, err := vpt.NewBalanced(c.K, c.n)
			if err != nil {
				t.Fatal(err)
			}
			w, err := chanpt.NewWorld(c.K, 2)
			if err != nil {
				t.Fatal(err)
			}
			runChurnProperty(t, tp, w.Comms(), c.rounds, int64(c.K)*7+int64(c.n))
		})
	}
}

func TestDynamicPropertyTCP(t *testing.T) {
	cells := []struct{ K, n, rounds int }{{8, 3, 2}, {16, 2, 2}}
	if !testing.Short() {
		cells = append(cells, struct{ K, n, rounds int }{64, 3, 1})
	}
	for _, c := range cells {
		c := c
		t.Run(fmt.Sprintf("K=%d/n=%d", c.K, c.n), func(t *testing.T) {
			tp, err := vpt.NewBalanced(c.K, c.n)
			if err != nil {
				t.Fatal(err)
			}
			w, err := tcpnet.NewWorld(c.K)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			runChurnProperty(t, tp, w.Comms(), c.rounds, int64(c.K)*11+int64(c.n))
		})
	}
}

// TestDynamicPropertyUDP runs the property over udpnet, whose hinted flow
// control now sees the census's stages as well as the payload's.
func TestDynamicPropertyUDP(t *testing.T) {
	cells := []struct{ K, n, rounds int }{{8, 3, 2}, {16, 2, 2}}
	if !testing.Short() {
		cells = append(cells, struct{ K, n, rounds int }{64, 3, 1})
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("K=%d/n=%d", c.K, c.n), func(t *testing.T) {
			tp, err := vpt.NewBalanced(c.K, c.n)
			if err != nil {
				t.Fatal(err)
			}
			w, err := udpnet.NewWorld(c.K)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			runChurnProperty(t, tp, w.Comms(), c.rounds, int64(c.K)*13+int64(c.n))
		})
	}
}

// TestDynamicPropertyHier runs the property over the hier composite:
// chanpt within each half of the world, tcpnet between the halves. A frame
// between the halves takes a copying route, so the mux recycles the
// sender's pooled buffer and the receiver recycles the copy, census frames
// included.
func TestDynamicPropertyHier(t *testing.T) {
	chanWorld := func(size int) ([]runtime.Comm, func(), error) {
		w, err := chanpt.NewWorld(size, 2)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	}
	tcpWorld := func(size int) ([]runtime.Comm, func(), error) {
		w, err := tcpnet.NewWorld(size)
		if err != nil {
			return nil, nil, err
		}
		return w.Comms(), w.Close, nil
	}
	mux := func(subs ...[]runtime.Comm) ([]runtime.Comm, error) {
		half := (len(subs[0]) + 1) / 2
		w, err := hier.New(hier.Config{Inner: subs[0], Outer: subs[1], NodeOf: func(r int) int { return r / half }})
		if err != nil {
			return nil, err
		}
		return w.Comms(), nil
	}
	for _, c := range []struct{ K, n, rounds int }{{8, 3, 2}, {16, 2, 2}} {
		t.Run(fmt.Sprintf("K=%d/n=%d", c.K, c.n), func(t *testing.T) {
			tp, err := vpt.NewBalanced(c.K, c.n)
			if err != nil {
				t.Fatal(err)
			}
			comms, closeWorld, err := tptest.Composite(mux, chanWorld, tcpWorld)(c.K)
			if err != nil {
				t.Fatal(err)
			}
			defer closeWorld()
			runChurnProperty(t, tp, comms, c.rounds, int64(c.K)*17+int64(c.n))
		})
	}
}

// TestDynamicPropertyFaultDelay runs the whole dynamic path — census,
// patch, incremental re-lower, replay, relearn reference — under the
// fault injector's send delays. Delay is contract-preserving, so the
// bit-identity property must survive adversarial timing.
func TestDynamicPropertyFaultDelay(t *testing.T) {
	tp, err := vpt.NewBalanced(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	w, err := chanpt.NewWorld(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	inj := tptest.NewInjector(tptest.FaultConfig{Seed: 5, Delay: 0.5, MaxDelay: 100 * time.Microsecond})
	runChurnProperty(t, tp, inj.WrapAll(w.Comms()), 2, 99)
	if st := inj.Stats(); st.Delayed == 0 {
		t.Fatalf("delay fault never fired: %+v", st)
	}
}
