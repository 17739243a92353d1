package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

// laneWords is rank me's sum-lane contribution in a world of K: words that
// mix ±1e16 with 1, so the association order of the fold decides the bits
// (1e16 + 1 rounds back to 1e16).
func laneWords(me, K int) []float64 {
	big := 1e16
	if me%2 == 1 {
		big = -big
	}
	edge := 1.0
	switch me {
	case 0:
		edge = 1e16
	case K - 1:
		edge = -1e16
	}
	return []float64{big, edge, float64(me%3) - 1 + big/3, 0.1 * float64(me+1)}
}

// serialDigitFold is RunSum's reduction computed in one place: stage by
// stage, every rank's words replaced by its line's words added in digit
// order. It returns the words every rank must end with.
func serialDigitFold(tp *vpt.Topology, lanes [][]float64) []float64 {
	cur := lanes
	for d := 0; d < tp.N(); d++ {
		next := make([][]float64, len(cur))
		for me := range cur {
			next[me] = make([]float64, len(cur[me]))
			for w := range next[me] {
				acc := cur[tp.WithDigit(me, d, 0)][w]
				for x := 1; x < tp.Dim(d); x++ {
					acc += cur[tp.WithDigit(me, d, x)][w]
				}
				next[me][w] = acc
			}
		}
		cur = next
	}
	return cur[0]
}

// runWithin runs fn on every rank of w and returns each rank's error; it
// fails the test if the world has not finished within the bound.
func runWithin(t *testing.T, w *chanpt.World, bound time.Duration, fn runtime.RankFunc) []error {
	t.Helper()
	errs := make([]error, w.Size())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(func(c runtime.Comm) error {
			errs[c.Rank()] = fn(c)
			return nil
		})
	}()
	select {
	case <-done:
		return errs
	case <-time.After(bound):
		w.Close()
		<-done
		t.Fatalf("world still running after %v", bound)
		return nil
	}
}

// TestReplayRunSum holds the compiled sum lane to its contract on chanpt:
// every rank returns the same bits, those of a serial digit-order fold;
// the halo is the one Run delivers; a rank with a different lane length
// makes every rank fail, none hangs; a direct replay refuses a lane. A
// topology needs every dimension >= 2, so the smallest store-and-forward
// world is T(2); K=1 is the single-rank direct replay.
func TestReplayRunSum(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for _, dims := range [][]int{{2}, {2, 2, 2}, {2, 3, 5}, {4, 4, 4}} {
		tp := vpt.MustNew(dims...)
		K := tp.Size()
		t.Run(fmt.Sprint(dims), func(t *testing.T) {
			s := randomSendSets(rng, K, 1, 3, 4)
			w, err := chanpt.NewWorld(K, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			reps := make([]*Replay, K)
			xs := make([][]float64, K)
			err = w.Run(func(c runtime.Comm) error {
				me := c.Rank()
				h := buildHarness(s.Sets[me], 1, me)
				p, _, err := NewPersistent(c, tp, h.payloadBytes(me, 0))
				if err != nil {
					return err
				}
				if reps[me], err = p.Compile(h.xlen, h.gather); err != nil {
					return err
				}
				xs[me] = make([]float64, h.xlen)
				h.fill(xs[me], me, 1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}

			lanes := make([][]float64, K)
			for me := range lanes {
				lanes[me] = laneWords(me, K)
			}
			want := serialDigitFold(tp, lanes)
			if K > 2 {
				// The check is not vacuous: rank-order addition gives
				// other bits.
				plain := append([]float64(nil), lanes[0]...)
				for _, l := range lanes[1:] {
					for i, v := range l {
						plain[i] += v
					}
				}
				if fmt.Sprint(plain) == fmt.Sprint(want) {
					t.Fatalf("lanes %v fold to %v in rank order too", lanes, want)
				}
			}
			errs := runWithin(t, w, 20*time.Second, func(c runtime.Comm) error {
				me := c.Rank()
				r := reps[me]
				plain := make([]float64, r.HaloWords())
				if err := r.Run(c, xs[me], plain); err != nil {
					return err
				}
				halo := make([]float64, r.HaloWords())
				sum := append([]float64(nil), lanes[me]...)
				if err := r.RunSum(c, xs[me], halo, sum); err != nil {
					return err
				}
				for i := range halo {
					if math.Float64bits(halo[i]) != math.Float64bits(plain[i]) {
						return fmt.Errorf("halo word %d: %v with a lane, %v without", i, halo[i], plain[i])
					}
				}
				for i := range sum {
					if math.Float64bits(sum[i]) != math.Float64bits(want[i]) {
						return fmt.Errorf("sum word %d: %v, serial digit-order fold %v", i, sum[i], want[i])
					}
				}
				return nil
			})
			for me, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", me, err)
				}
			}

			// One rank's lane is a word short: every rank errors, none
			// hangs, and the world is drained for the next exchange.
			odd := K / 2
			errs = runWithin(t, w, 20*time.Second, func(c runtime.Comm) error {
				me := c.Rank()
				sum := laneWords(me, K)
				if me == odd {
					sum = sum[:3]
				}
				return reps[me].RunSum(c, xs[me], make([]float64, reps[me].HaloWords()), sum)
			})
			for me, err := range errs {
				if err == nil {
					t.Fatalf("rank %d returned data from a world with one short lane", me)
				}
			}
			errs = runWithin(t, w, 20*time.Second, func(c runtime.Comm) error {
				me := c.Rank()
				return reps[me].RunSum(c, xs[me], make([]float64, reps[me].HaloWords()), laneWords(me, K))
			})
			for me, err := range errs {
				if err != nil {
					t.Fatalf("rank %d after the failed exchange: %v", me, err)
				}
			}
		})
	}

	t.Run("K=1 direct", func(t *testing.T) {
		w, err := chanpt.NewWorld(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		err = w.Run(func(c runtime.Comm) error {
			r, err := NewDirectReplay(0, 1, 1, map[int][]int32{0: {0}}, nil)
			if err != nil {
				return err
			}
			x, halo := []float64{2.5}, make([]float64, 1)
			if err := r.RunSum(c, x, halo, []float64{1}); err == nil {
				return fmt.Errorf("a direct replay accepted a sum lane")
			}
			return r.RunSum(c, x, halo, nil)
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkReplayRunSum is BenchmarkReplayRun with a 4-word sum lane on
// every frame: one world-wide exchange that is also an allreduce. Like
// Run, a steady-state RunSum allocates nothing, so allocs/op reads 0.
//
//	go test -run '^$' -bench ReplayRunSum -benchmem ./internal/core/
func BenchmarkReplayRunSum(b *testing.B) {
	const xlen = 256
	_, reps, _ := churnWorld(b, xlen)
	K := len(reps)
	xs := distinctX(K, xlen)
	halos := make([][]float64, K)
	sums := make([][]float64, K)
	for me, r := range reps {
		halos[me] = make([]float64, r.HaloWords())
		sums[me] = make([]float64, 4)
	}
	w, err := chanpt.NewWorld(K, 2)
	if err != nil {
		b.Fatal(err)
	}
	step, stop := tptest.Lockstep(w.Comms(), func(c runtime.Comm, _ int) error {
		me := c.Rank()
		copy(sums[me], laneWords(me, K))
		return reps[me].RunSum(c, xs[me], halos[me], sums[me])
	})
	defer stop()
	for i := 0; i < 50; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := step(); err != nil {
			b.Fatal(err)
		}
	}
}
