package collectives

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"sync/atomic"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/tcpnet"
	"stfw/internal/transport/tptest"
	"stfw/internal/transport/udpnet"
)

func world(t testing.TB, K int) *chanpt.World {
	t.Helper()
	w, err := chanpt.NewWorld(K, K)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBarrier(t *testing.T) {
	for _, K := range []int{1, 2, 3, 8, 13, 32} {
		var before int32
		w := world(t, K)
		err := w.Run(func(c runtime.Comm) error {
			atomic.AddInt32(&before, 1)
			if err := Barrier(c); err != nil {
				return err
			}
			if got := atomic.LoadInt32(&before); got != int32(K) {
				return fmt.Errorf("rank %d passed barrier with %d arrivals", c.Rank(), got)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

func TestBcastAllRootsAllSizes(t *testing.T) {
	payload := []byte("broadcast me, carefully")
	for _, K := range []int{1, 2, 3, 7, 8, 16, 20} {
		for root := 0; root < K; root += maxi(1, K/3) {
			w := world(t, K)
			err := w.Run(func(c runtime.Comm) error {
				var buf []byte
				if c.Rank() == root {
					buf = payload
				}
				got, err := Bcast(c, root, buf)
				if err != nil {
					return err
				}
				if !bytes.Equal(got, payload) {
					return fmt.Errorf("rank %d got %q", c.Rank(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("K=%d root=%d: %v", K, root, err)
			}
		}
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestBcastBadRoot(t *testing.T) {
	w := world(t, 2)
	err := w.Run(func(c runtime.Comm) error {
		if _, err := Bcast(c, 5, nil); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherDoubles(t *testing.T) {
	for _, K := range []int{1, 2, 3, 8, 11} {
		w := world(t, K)
		err := w.Run(func(c runtime.Comm) error {
			mine := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
			all, err := AllgatherDoubles(c, mine)
			if err != nil {
				return err
			}
			if len(all) != K {
				return fmt.Errorf("got %d segments", len(all))
			}
			for r := 0; r < K; r++ {
				if len(all[r]) != 2 || all[r][0] != float64(r) || all[r][1] != float64(r*10) {
					return fmt.Errorf("rank %d: segment %d = %v", c.Rank(), r, all[r])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, K := range []int{1, 2, 4, 8, 16, 3, 6, 12} {
		w := world(t, K)
		wantSum := float64(K*(K-1)) / 2
		err := w.Run(func(c runtime.Comm) error {
			vec := []float64{float64(c.Rank()), 1}
			got, err := Allreduce(c, vec, Sum)
			if err != nil {
				return err
			}
			if got[0] != wantSum || got[1] != float64(K) {
				return fmt.Errorf("rank %d: got %v, want [%v %v]", c.Rank(), got, wantSum, float64(K))
			}
			// The input must not be clobbered.
			if vec[0] != float64(c.Rank()) {
				return fmt.Errorf("input mutated")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	const K = 8
	w := world(t, K)
	err := w.Run(func(c runtime.Comm) error {
		v := float64(c.Rank())
		max, err := AllreduceScalar(c, v, Max)
		if err != nil {
			return err
		}
		min, err := AllreduceScalar(c, v, Min)
		if err != nil {
			return err
		}
		if max != K-1 || min != 0 {
			return fmt.Errorf("max=%v min=%v", max, min)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceLengthMismatch(t *testing.T) {
	w := world(t, 2)
	errs := make([]error, 2)
	_ = w.Run(func(c runtime.Comm) error {
		vec := make([]float64, 1+c.Rank()) // ranks disagree on length
		_, errs[c.Rank()] = Allreduce(c, vec, Sum)
		return nil
	})
	if errs[0] == nil && errs[1] == nil {
		t.Error("length mismatch not detected")
	}
}

func TestAlltoall(t *testing.T) {
	for _, K := range []int{1, 2, 4, 8, 3, 5, 9} {
		w := world(t, K)
		err := w.Run(func(c runtime.Comm) error {
			me := c.Rank()
			send := make([][]byte, K)
			for j := 0; j < K; j++ {
				send[j] = []byte{byte(me), byte(j)}
			}
			recv, err := Alltoall(c, send)
			if err != nil {
				return err
			}
			for i := 0; i < K; i++ {
				if len(recv[i]) != 2 || int(recv[i][0]) != i || int(recv[i][1]) != me {
					return fmt.Errorf("rank %d: recv[%d] = %v", me, i, recv[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

func TestAlltoallValidation(t *testing.T) {
	w := world(t, 2)
	errs := make([]error, 2)
	_ = w.Run(func(c runtime.Comm) error {
		if c.Rank() == 0 {
			_, errs[0] = Alltoall(c, make([][]byte, 1)) // wrong length
			return nil
		}
		return nil
	})
	if errs[0] == nil {
		t.Error("wrong sendbuf length accepted")
	}
}

func BenchmarkAllreduce64(b *testing.B) {
	w := world(b, 64)
	comms := w.Comms()
	vec := make([]float64, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := runtime.Run(comms, func(c runtime.Comm) error {
			_, err := Allreduce(c, vec, Sum)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarrier64(b *testing.B) {
	w := world(b, 64)
	comms := w.Comms()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runtime.Run(comms, Barrier); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGather(t *testing.T) {
	for _, K := range []int{1, 2, 5, 8} {
		for root := 0; root < K; root += maxi(1, K-1) {
			w := world(t, K)
			err := w.Run(func(c runtime.Comm) error {
				mine := []byte{byte(c.Rank() * 3)}
				got, err := Gather(c, root, mine)
				if err != nil {
					return err
				}
				if c.Rank() != root {
					if got != nil {
						return fmt.Errorf("non-root got data")
					}
					return nil
				}
				for r := 0; r < K; r++ {
					if len(got[r]) != 1 || got[r][0] != byte(r*3) {
						return fmt.Errorf("root: got[%d] = %v", r, got[r])
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("K=%d root=%d: %v", K, root, err)
			}
		}
	}
	w := world(t, 2)
	err := w.Run(func(c runtime.Comm) error {
		if _, err := Gather(c, 9, nil); err == nil {
			return fmt.Errorf("bad root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceScatterDoubles(t *testing.T) {
	for _, K := range []int{2, 4, 3} {
		w := world(t, K)
		n := 2 * K
		err := w.Run(func(c runtime.Comm) error {
			vec := make([]float64, n)
			for i := range vec {
				vec[i] = float64(i)
			}
			// Sum over K ranks of the same vector = K * vec.
			got, err := ReduceScatterDoubles(c, vec, Sum)
			if err != nil {
				return err
			}
			me := c.Rank()
			lo := me * n / K
			if len(got) != (me+1)*n/K-lo {
				return fmt.Errorf("rank %d: block size %d", me, len(got))
			}
			for i, v := range got {
				if want := float64(K) * float64(lo+i); v != want {
					return fmt.Errorf("rank %d: got[%d] = %v, want %v", me, i, v, want)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

// rankVec is rank r's input to the identity tests: magnitudes spread over
// thirty decades, so the rounding of a sum depends on the order it is
// taken in.
func rankVec(r int) []float64 {
	rng := rand.New(rand.NewSource(int64(r) + 1))
	v := make([]float64, 5)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
	}
	return v
}

// TestAllreduceBitIdentical: every rank leaves AllreduceInPlace with the
// same bits, for powers of two, fold-in/fold-out worlds and K=1, over a
// zero-copy and a copying transport; and the words are the reduction.
func TestAllreduceBitIdentical(t *testing.T) {
	ops := []struct {
		name string
		op   Op
		tol  float64
	}{{"sum", Sum, 1e-12}, {"max", Max, 0}, {"min", Min, 0}}
	for _, K := range []int{1, 2, 3, 5, 6, 8, 12, 64} {
		uw, err := udpnet.NewWorld(K)
		if err != nil {
			t.Fatal(err)
		}
		for name, comms := range map[string][]runtime.Comm{"chanpt": world(t, K).Comms(), "udpnet": uw.Comms()} {
			got := make([][][]float64, K) // rank, op, word
			err := runtime.Run(comms, func(c runtime.Comm) error {
				for _, o := range ops {
					vec := rankVec(c.Rank())
					if err := AllreduceInPlace(c, vec, o.op); err != nil {
						return err
					}
					got[c.Rank()] = append(got[c.Rank()], vec)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, K, err)
			}
			for oi, o := range ops {
				want := rankVec(0)
				var scale float64
				for r := 1; r < K; r++ {
					for i, v := range rankVec(r) {
						want[i] = o.op(want[i], v)
						scale = math.Max(scale, math.Abs(v))
					}
				}
				for r := 0; r < K; r++ {
					for i, v := range got[r][oi] {
						if math.Float64bits(v) != math.Float64bits(got[0][oi][i]) {
							t.Errorf("%s K=%d %s: rank %d word %d = %x, rank 0 has %x", name, K, o.name, r, i, math.Float64bits(v), math.Float64bits(got[0][oi][i]))
						}
						if math.Abs(v-want[i]) > o.tol*scale {
							t.Errorf("%s K=%d %s: rank %d word %d = %g, want %g", name, K, o.name, r, i, v, want[i])
						}
					}
				}
			}
		}
		uw.Close()
	}
}

// TestTagBlocksDisjoint: no two collectives share a tag, and none shares
// one with the exchange or with a transport's control traffic.
func TestTagBlocksDisjoint(t *testing.T) {
	type span struct {
		name   string
		lo, hi int
	}
	blocks := []span{
		{"barrier", tagBarrier, tagBarrier + maxRounds},
		{"bcast", tagBcast, tagBcast + 1},
		{"allgather", tagAllgather, tagAllgather + 1},
		{"allreduce", tagAllreduce, tagAllreduce + maxRounds},
		{"alltoall", tagAlltoall, tagAlltoall + 1},
		{"gather", tagGather, tagGather + 1},
	}
	lo, hi := TagSpan()
	for i, a := range blocks {
		if a.lo < lo || a.hi > hi {
			t.Errorf("%s [%#x,%#x) lies outside TagSpan [%#x,%#x)", a.name, a.lo, a.hi, lo, hi)
		}
		for _, b := range blocks[i+1:] {
			if a.lo < b.hi && b.lo < a.hi {
				t.Errorf("%s [%#x,%#x) overlaps %s [%#x,%#x)", a.name, a.lo, a.hi, b.name, b.lo, b.hi)
			}
		}
	}

	appLo, appHi := core.AppTagSpan(64)
	others := []span{{"core.AppTagSpan(64)", appLo, appHi}}
	uw, err := udpnet.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer uw.Close()
	tw, err := tcpnet.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	hw, err := hier.New(hier.Config{Inner: world(t, 2).Comms(), Outer: uw.Comms(), NodeOf: func(r int) int { return r }})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]runtime.Comm{
		"chanpt": world(t, 2).Comms()[0], "tcpnet": tw.Comms()[0], "udpnet": uw.Comms()[0], "hier": hw.Comms()[0],
	} {
		if rlo, rhi, ok := runtime.ReservedTagsOf(c); ok {
			others = append(others, span{name + " ReservedTags", rlo, rhi})
		}
	}
	if len(others) < 3 {
		t.Errorf("expected udpnet and hier to reserve tags, got %v", others)
	}
	for _, o := range others {
		if lo < o.hi && o.lo < hi {
			t.Errorf("TagSpan [%#x,%#x) overlaps %s [%#x,%#x)", lo, hi, o.name, o.lo, o.hi)
		}
	}
}

// TestMixedCollectivesBackToBack runs every collective back to back, three
// times over, with no barrier in between and one rank's every send delayed:
// the other ranks run ahead into later collectives and later rounds, and a
// frame must still only match the call and round it was sent in.
func TestMixedCollectivesBackToBack(t *testing.T) {
	for _, K := range []int{5, 8} {
		comms := world(t, K).Comms()
		slow := K / 2
		comms[slow] = tptest.NewInjector(tptest.FaultConfig{Seed: 1, Delay: 1, MaxDelay: time.Millisecond}).Wrap(comms[slow])
		err := runtime.Run(comms, func(c runtime.Comm) error {
			me := c.Rank()
			for pass := 0; pass < 3; pass++ {
				x := float64(pass*K + me)
				wantSum := float64(pass*K*K + K*(K-1)/2)
				if err := Barrier(c); err != nil {
					return err
				}
				if got, err := AllreduceScalar(c, x, Sum); err != nil || got != wantSum {
					return fmt.Errorf("pass %d allreduce: %v, %v (want %v)", pass, got, err, wantSum)
				}
				if got, err := Bcast(c, pass%K, []byte{byte(pass), byte(me)}); err != nil || got[0] != byte(pass) || got[1] != byte(pass%K) {
					return fmt.Errorf("pass %d bcast: %v, %v", pass, got, err)
				}
				all, err := AllgatherDoubles(c, []float64{x})
				if err != nil {
					return err
				}
				for r := range all {
					if all[r][0] != float64(pass*K+r) {
						return fmt.Errorf("pass %d allgather: segment %d = %v", pass, r, all[r])
					}
				}
				if got, err := AllreduceScalar(c, x, Max); err != nil || got != float64(pass*K+K-1) {
					return fmt.Errorf("pass %d allreduce max: %v, %v", pass, got, err)
				}
				send := make([][]byte, K)
				for j := range send {
					send[j] = []byte{byte(pass), byte(me), byte(j)}
				}
				recv, err := Alltoall(c, send)
				if err != nil {
					return err
				}
				for i := range recv {
					if !bytes.Equal(recv[i], []byte{byte(pass), byte(i), byte(me)}) {
						return fmt.Errorf("pass %d alltoall: recv[%d] = %v", pass, i, recv[i])
					}
				}
				rows, err := Gather(c, K-1, []byte{byte(pass), byte(me)})
				if err != nil {
					return err
				}
				for r := range rows { // nil off the root
					if !bytes.Equal(rows[r], []byte{byte(pass), byte(r)}) {
						return fmt.Errorf("pass %d gather: rows[%d] = %v", pass, r, rows[r])
					}
				}
				if got, err := ReduceScatterDoubles(c, make([]float64, K), Sum); err != nil || len(got) != 1 {
					return fmt.Errorf("pass %d reduce-scatter: %v, %v", pass, got, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("K=%d: %v", K, err)
		}
	}
}

// TestAllreduceSteadyStateAllocs: round buffers come from the frame pool
// and go back to it, so a warmed-up allreduce allocates nothing of its own.
// The bound of one per call leaves room for what chanpt's inbox does.
func TestAllreduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; the gate runs in the non-race CI job")
	}
	const K, calls = 8, 2000
	comms := world(t, K).Comms()
	run := func() {
		err := runtime.Run(comms, func(c runtime.Comm) error {
			vec := make([]float64, 2)
			for i := 0; i < calls; i++ {
				vec[0], vec[1] = 1, float64(c.Rank())
				if err := AllreduceInPlace(c, vec, Sum); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run() // fill the pool
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	run()
	goruntime.ReadMemStats(&m1)
	if per := float64(m1.Mallocs-m0.Mallocs) / (K * calls); per > 1 {
		t.Errorf("steady-state AllreduceInPlace allocates %.2f times per call, want at most 1", per)
	} else {
		t.Logf("%.3f allocs per call", per)
	}
}
