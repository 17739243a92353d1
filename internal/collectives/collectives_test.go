package collectives

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"slices"
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

func TestAllreduceSum(t *testing.T) {
	for _, K := range []int{1, 2, 4, 8, 16, 3, 6, 12} {
		w := world(t, K)
		wantSum := float64(K*(K-1)) / 2
		err := w.Run(func(c runtime.Comm) error {
			vec := []float64{float64(c.Rank()), 1}
			got := append([]float64(nil), vec...)
			if err := AllreduceInPlace(c, got, Sum); err != nil {
				return err
			}
			if got[0] != wantSum || got[1] != float64(K) {
				return fmt.Errorf("rank %d: got %v, want [%v %v]", c.Rank(), got, wantSum, float64(K))
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

// TestAllreduceLengthMismatch: one rank's vector is a word longer than
// everyone else's. Whatever its place in the tree — childless, inner node,
// root — every rank returns an error and none is left in Recv: the rank
// that sees the odd frame passes a poison frame on instead of leaving.
func TestAllreduceLengthMismatch(t *testing.T) {
	for _, K := range []int{2, 5, 16, 64} {
		places := map[string]int{"leaf": K - 1, "root": 0}
		if K > 5 {
			places["inner"] = 4 // children 5, 6, 7; parent 0
		}
		if K > 17 {
			places["inner2"] = 16 // children at two levels
		}
		for place, odd := range places {
			errs := make([]error, K)
			done := make(chan struct{})
			go func() {
				defer close(done)
				_ = world(t, K).Run(func(c runtime.Comm) error {
					vec := make([]float64, 1)
					if c.Rank() == odd {
						vec = make([]float64, 2)
					}
					errs[c.Rank()] = AllreduceInPlace(c, vec, Sum)
					return nil
				})
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("K=%d, odd vector at %s rank %d: ranks still blocked after 10s", K, place, odd)
			}
			for r, err := range errs {
				if err == nil {
					t.Errorf("K=%d, odd vector at %s rank %d: rank %d returned no error", K, place, odd, r)
				}
			}
		}
	}
}

// benchWorlds runs fn b.N times on all 64 ranks of a chanpt and of a udpnet
// world. The udpnet leg reports frames/op (first transmissions of data
// packets; every frame here fits one) and dgrams/op (what hit the wire,
// stand-alone acks included) from the world's own counters.
func benchWorlds(b *testing.B, fn runtime.RankFunc) {
	const K = 64
	loop := func(b *testing.B, comms []runtime.Comm) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := runtime.Run(comms, fn); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("chanpt", func(b *testing.B) { loop(b, world(b, K).Comms()) })
	b.Run("udpnet", func(b *testing.B) {
		w, err := udpnet.NewWorld(K)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		before := w.Stats()
		loop(b, w.Comms())
		after := w.Stats()
		b.ReportMetric(float64(after.DataSent-before.DataSent)/float64(b.N), "frames/op")
		b.ReportMetric(float64(after.BatchDgrams-before.BatchDgrams)/float64(b.N), "dgrams/op")
	})
}

func BenchmarkAllreduce64(b *testing.B) {
	benchWorlds(b, func(c runtime.Comm) error {
		var vec [128]float64
		return AllreduceInPlace(c, vec[:], Sum)
	})
}

func BenchmarkBarrier64(b *testing.B) { benchWorlds(b, Barrier) }

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
// same bits, for full trees (K a power of four), ragged ones and K=1, over
// a zero-copy and a copying transport; and the words are the reduction.
func TestAllreduceBitIdentical(t *testing.T) {
	ops := []struct {
		name string
		op   Op
		tol  float64
	}{{"sum", Sum, 1e-12}, {"max", Max, 0}, {"min", Min, 0}}
	for _, K := range []int{1, 2, 3, 4, 5, 6, 8, 12, 15, 16, 17, 63, 64, 65} {
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

// TestAllreduceReproducible: the fold order is fixed by the tree, not by
// which child's frame arrives first, so two runs with differently
// scrambled timing and service order leave the same bits.
func TestAllreduceReproducible(t *testing.T) {
	for _, K := range []int{6, 17, 64} {
		var runs [2][]float64
		for i := range runs {
			inj := tptest.NewInjector(tptest.FaultConfig{Seed: int64(7 + i), Delay: 0.5, Reorder: 0.5})
			got := make([][]float64, K)
			err := runtime.Run(inj.WrapAll(world(t, K).Comms()), func(c runtime.Comm) error {
				got[c.Rank()] = rankVec(c.Rank())
				return AllreduceInPlace(c, got[c.Rank()], Sum)
			})
			if err != nil {
				t.Fatalf("K=%d seed %d: %v", K, 7+i, err)
			}
			if inj.Stats().Delayed == 0 {
				t.Fatalf("K=%d seed %d: no send was delayed; the run is not scrambled", K, 7+i)
			}
			runs[i] = got[K-1]
		}
		for w := range runs[0] {
			if a, b := math.Float64bits(runs[0][w]), math.Float64bits(runs[1][w]); a != b {
				t.Errorf("K=%d word %d: %x under one seed, %x under the other", K, w, a, b)
			}
		}
	}
}

// treeProbe records what one rank does during a tree walk: the frames it
// sends, the rank it sends up to, and how many frames it receives from
// higher ranks (its children) on each tag.
type treeProbe struct {
	runtime.Passthrough
	sent    int
	parent  int
	fanIn   map[int]int
	fanOut  map[int]int
	recvd   int
	badRecv bool
}

func (p *treeProbe) Send(to, tag int, payload []byte) error {
	p.sent++
	if to < p.Rank() {
		p.parent = to
	} else {
		p.fanOut[tag]++
	}
	return p.Comm.Send(to, tag, payload)
}

func (p *treeProbe) Recv(from, tag int) ([]byte, error) {
	p.recvd++
	if from > p.Rank() {
		p.fanIn[tag]++
	} else if from != p.parent {
		p.badRecv = true // the result must come from the rank the words went to
	}
	return p.Comm.Recv(from, tag)
}

// TestTreeFrameCountAndShape is the claim as a count: one allreduce, and
// one barrier, is 2(K-1) frames world-wide for every K; no rank has more
// than three children on a level, every rank gets the result from the rank
// it sent its words to, and no rank is more than ceil(log4 K) edges from
// rank 0 — the deepest is the one with the most non-zero base-4 digits.
func TestTreeFrameCountAndShape(t *testing.T) {
	walks := map[string]runtime.RankFunc{
		"allreduce": func(c runtime.Comm) error { return AllreduceInPlace(c, []float64{1, 2}, Sum) },
		"barrier":   Barrier,
	}
	for _, K := range []int{1, 2, 3, 4, 5, 15, 16, 17, 63, 64, 65} {
		levels, digits := 0, 0 // ceil(log4 K); most non-zero digits of a rank below K
		for s := 1; s < K; s *= 4 {
			levels++
		}
		for r := 0; r < K; r++ {
			n := 0
			for v := r; v > 0; v /= 4 {
				if v%4 != 0 {
					n++
				}
			}
			digits = max(digits, n)
		}
		for name, walk := range walks {
			comms := world(t, K).Comms()
			probes := make([]*treeProbe, K)
			for r := range comms {
				probes[r] = &treeProbe{Passthrough: runtime.Passthrough{Comm: comms[r]}, parent: -1, fanIn: map[int]int{}, fanOut: map[int]int{}}
				comms[r] = probes[r]
			}
			if err := runtime.Run(comms, walk); err != nil {
				t.Fatalf("%s K=%d: %v", name, K, err)
			}
			sent, recvd, deepest := 0, 0, 0
			for r, p := range probes {
				sent += p.sent
				recvd += p.recvd
				for tag, n := range p.fanIn {
					if n > 3 || p.fanOut[tag] != n {
						t.Errorf("%s K=%d: rank %d heard from %d children on tag %#x and answered %d", name, K, r, n, tag, p.fanOut[tag])
					}
				}
				if p.badRecv || (r > 0) != (p.parent >= 0) {
					t.Errorf("%s K=%d: rank %d sent up to %d and was answered by another rank (%v)", name, K, r, p.parent, p.badRecv)
				}
				depth := 0
				for a := r; a > 0; a = probes[a].parent { // a parent is a lower rank, or -1
					depth++
				}
				deepest = max(deepest, depth)
			}
			if want := 2 * (K - 1); sent != want || recvd != want {
				t.Errorf("%s K=%d: %d frames sent, %d received, want 2(K-1) = %d", name, K, sent, recvd, want)
			}
			if deepest != digits || deepest > levels {
				t.Errorf("%s K=%d: deepest rank is %d edges from rank 0, want %d (at most %d levels)", name, K, deepest, digits, levels)
			}
		}
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
		{"allreduce", tagAllreduce, tagAllreduce + maxRounds},
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

// TestMixedCollectivesBackToBack runs the collectives back to back, three
// times over, with no barrier in between and one rank's every send delayed:
// the other ranks run ahead into later calls and later levels, and a frame
// must still only match the call and level it was sent in. The two vector
// allreduces differ in length, so a frame that matched the other one would
// fail the length check.
func TestMixedCollectivesBackToBack(t *testing.T) {
	// vec is rank r's n words in pass p; want folds them over the ranks
	// in rank order. The words are small integers, so every order of
	// summing them gives the same bits.
	vec := func(p, r, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(p*100 + r*10 + i)
		}
		return v
	}
	want := func(K, p, n int, op Op) []float64 {
		acc := vec(p, 0, n)
		for r := 1; r < K; r++ {
			for i, x := range vec(p, r, n) {
				acc[i] = op(acc[i], x)
			}
		}
		return acc
	}
	for _, K := range []int{5, 8} {
		comms := world(t, K).Comms()
		slow := K / 2
		comms[slow] = tptest.NewInjector(tptest.FaultConfig{Seed: 1, Delay: 1, MaxDelay: time.Millisecond}).Wrap(comms[slow])
		err := runtime.Run(comms, func(c runtime.Comm) error {
			me := c.Rank()
			for pass := 0; pass < 3; pass++ {
				if err := Barrier(c); err != nil {
					return err
				}
				a := vec(pass, me, 3)
				if err := AllreduceInPlace(c, a, Sum); err != nil {
					return fmt.Errorf("pass %d allreduce of 3: %w", pass, err)
				}
				if w := want(K, pass, 3, Sum); !slices.Equal(a, w) {
					return fmt.Errorf("pass %d allreduce of 3: rank %d got %v, want %v", pass, me, a, w)
				}
				got, err := AllreduceScalar(c, vec(pass, me, 1)[0], Max)
				if w := want(K, pass, 1, Max)[0]; err != nil || got != w {
					return fmt.Errorf("pass %d allreduce scalar: rank %d got %v, %v (want %v)", pass, me, got, err, w)
				}
				b := vec(pass, me, 5)
				if err := AllreduceInPlace(c, b, Sum); err != nil {
					return fmt.Errorf("pass %d allreduce of 5: %w", pass, err)
				}
				if w := want(K, pass, 5, Sum); !slices.Equal(b, w) {
					return fmt.Errorf("pass %d allreduce of 5: rank %d got %v, want %v", pass, me, b, w)
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
