package hier_test

import (
	"math/rand"
	"testing"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

// persistentHierLockstep builds a K-rank hier world (chanpt inner, outer
// from the factory, twoNodes split) and returns tptest.Lockstep's step and
// stop over it: step 0 learns each rank's Persistent on tp, every later
// step is one world-wide Persistent.Run. Each rank sends dests payloads of
// size bytes to random other ranks.
func persistentHierLockstep(tb testing.TB, outer tptest.Factory, tp *vpt.Topology, dests, size int) (step func() error, stop func()) {
	tb.Helper()
	K := tp.Size()
	rng := rand.New(rand.NewSource(int64(K)))
	payloads := make([]map[int][]byte, K)
	for src := range payloads {
		payloads[src] = map[int][]byte{}
		for len(payloads[src]) < dests {
			if dst := rng.Intn(K); dst != src {
				p := make([]byte, size)
				rng.Read(p)
				payloads[src][dst] = p
			}
		}
	}
	inner, closeInner, err := chanFactory(K)
	if err != nil {
		tb.Fatal(err)
	}
	out, closeOuter, err := outer(K)
	if err != nil {
		closeInner()
		tb.Fatal(err)
	}
	w, err := hier.New(hier.Config{Inner: inner, Outer: out, NodeOf: twoNodes(K)})
	if err != nil {
		closeOuter()
		closeInner()
		tb.Fatal(err)
	}
	ps := make([]*core.Persistent, K)
	step, stopSteps := tptest.Lockstep(w.Comms(), func(c runtime.Comm, iter int) error {
		me := c.Rank()
		if iter == 0 {
			var err error
			ps[me], _, err = core.NewPersistent(c, tp, payloads[me])
			return err
		}
		_, err := ps[me].Run(c, payloads[me])
		return err
	})
	return step, func() {
		stopSteps()
		closeOuter()
		closeInner()
	}
}

// TestPersistentRunHierAllocs gates the composite's share of the replay's
// zero-allocation steady state: a world-wide Persistent.Run over hier (K=16,
// T4(2,2,2,2), 6 destinations × 256 B per rank) allocates nothing, with a
// udpnet and with a tcpnet outer side. The mux reports SendRetains (its
// chanpt inner side hands frames on), so the replay gives up every send
// buffer; each frame that crosses the nodes is copied — behind the leader
// link's mux header — and must go back to the msg arena, or every
// cross-node frame costs the next Get an allocation.
func TestPersistentRunHierAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; the gate runs in the non-race CI job")
	}
	for _, tc := range []struct {
		name  string
		outer tptest.Factory
	}{{"udpnet", udpFactory}, {"tcpnet", tcpFactory}} {
		t.Run(tc.name, func(t *testing.T) {
			step, stop := persistentHierLockstep(t, tc.outer, vpt.MustNew(2, 2, 2, 2), 6, 256)
			defer stop()
			// Learn, then warm up the arena, the matchers and the links.
			for i := 0; i < 20; i++ {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			var stepErr error
			allocs := testing.AllocsPerRun(50, func() {
				if err := step(); err != nil && stepErr == nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if allocs != 0 {
				t.Errorf("persistent world iteration over hier: %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// BenchmarkPersistentRunHier times one world-wide Persistent.Run over the
// transport the replay-hier benchmark workload runs on — hier with chanpt
// inside and udpnet between two nodes of 32 ranks — in
// BenchmarkPersistentRun's shape (core: K=64, T6(2,2,2,2,2,2), 8 random
// destinations × 256 B per rank), so the mux, the leader links and udpnet
// are in the profile:
//
//	go test -run '^$' -bench PersistentRunHier -cpuprofile cpu.out ./internal/transport/hier/
func BenchmarkPersistentRunHier(b *testing.B) {
	step, stop := persistentHierLockstep(b, udpFactory, vpt.MustNew(2, 2, 2, 2, 2, 2), 8, 256)
	defer stop()
	if err := step(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}
