package spmv

import (
	"fmt"
	"math"
	"testing"

	"stfw/internal/core"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/telemetry"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

// diffConfig is one compiled-vs-serial differential configuration.
type diffConfig struct {
	name string
	opt  Options
	K    int
}

// runDifferential drives one session per rank for three rounds and requires
// every owned row to equal the serial CSR product bit for bit — the kernel
// preserves CSR order within a row, so the sums are the same floats. Round
// 0 is the learning multiply under STFW: it checks that learn lays the
// deliveries into the halo in ascending source order.
func runDifferential(t *testing.T, a *sparse.CSR, part *partition.Partition, cfg diffConfig) {
	t.Helper()
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 3)
	wants := make([][]float64, 3)
	for r := range xs {
		xs[r] = testVector(a.Cols, int64(500+r))
		if wants[r], err = a.MulVec(nil, xs[r]); err != nil {
			t.Fatal(err)
		}
	}
	w, err := chanpt.NewWorld(cfg.K, cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		sess, err := NewSession(c, a, part, pat, cfg.opt)
		if err != nil {
			return err
		}
		for r, x := range xs {
			y, err := sess.Multiply(x)
			if err != nil {
				return fmt.Errorf("round %d: %w", r, err)
			}
			for _, i := range sess.OwnedRows() {
				if math.Float64bits(y[i]) != math.Float64bits(wants[r][i]) {
					return fmt.Errorf("round %d row %d: compiled %v != serial %v (rank %d)",
						r, i, y[i], wants[r][i], c.Rank())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", cfg.name, err)
	}
}

// TestCompiledMatchesSerialBitIdentical covers BL and STFW across K ∈
// {8, 16, 64} balanced topologies and a non-power-of-two factored T2(3,4).
func TestCompiledMatchesSerialBitIdentical(t *testing.T) {
	a := testMatrix(t, 640, 6400, 60)
	for _, K := range []int{8, 16, 64} {
		part, err := partition.Greedy(a, K, partition.DefaultGreedy())
		if err != nil {
			t.Fatal(err)
		}
		dim := 3
		if K == 16 {
			dim = 4
		}
		tp, err := vpt.NewBalanced(K, dim)
		if err != nil {
			t.Fatal(err)
		}
		runDifferential(t, a, part, diffConfig{name: fmt.Sprintf("BL/K=%d", K), opt: Options{Method: BL}, K: K})
		runDifferential(t, a, part, diffConfig{name: fmt.Sprintf("STFW/K=%d", K), opt: Options{Method: STFW, Topo: tp}, K: K})
	}
	// Non-power-of-two factored topology: K = 12 = 3*4.
	part, err := partition.Greedy(a, 12, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	runDifferential(t, a, part, diffConfig{name: "STFW/K=12(3x4)", opt: Options{Method: STFW, Topo: vpt.MustNew(3, 4)}, K: 12})
	runDifferential(t, a, part, diffConfig{name: "BL/K=12", opt: Options{Method: BL}, K: 12})
}

// TestCompiledEmptyHaloRank isolates rank 0 on a diagonal block so it
// neither sends nor receives halo values, and checks the session still
// matches the serial product (it must handle zero-length gather, halo, and
// frame schedules).
func TestCompiledEmptyHaloRank(t *testing.T) {
	const n, K = 64, 4
	blk := n / K
	var ts []sparse.Triple
	for i := 0; i < n; i++ {
		ts = append(ts, sparse.Triple{Row: i, Col: i, Val: float64(i%7) + 0.5})
		if i >= blk { // off-diagonal coupling only outside rank 0's block
			j := blk + (i+5)%(n-blk)
			if j != i {
				ts = append(ts, sparse.Triple{Row: i, Col: j, Val: 1.25})
			}
		}
	}
	a, err := sparse.FromTriples(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Block(n, K)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	if len(pat.SendIdx[0]) != 0 || len(pat.RecvIdx[0]) != 0 {
		t.Fatalf("construction broken: rank 0 has halo traffic: send %v recv %v", pat.SendIdx[0], pat.RecvIdx[0])
	}
	tp, _ := vpt.NewBalanced(K, 2)
	runDifferential(t, a, part, diffConfig{name: "BL/empty-halo", opt: Options{Method: BL}, K: K})
	runDifferential(t, a, part, diffConfig{name: "STFW/empty-halo", opt: Options{Method: STFW, Topo: tp}, K: K})
}

// startAllocWorld parks one session per rank behind tptest.Lockstep, so
// AllocsPerRun can step all ranks through Multiply(x) without spawning
// goroutines (goroutine startup allocates) inside the measured region.
func startAllocWorld(t *testing.T, a *sparse.CSR, part *partition.Partition, pat *Pattern, opt Options, K int, x []float64) (multiply func() error, stop func()) {
	t.Helper()
	w, err := chanpt.NewWorld(K, K)
	if err != nil {
		t.Fatal(err)
	}
	comms := w.Comms()
	if opt.Telemetry != nil {
		// Full wiring: frame counters via the wrapped comms on top of the
		// session's phase/stage span hooks.
		stages := opt.Telemetry.Stages()
		opt.Telemetry.WrapComms(comms, func(tag int) (int, bool) {
			return core.TagStage(tag, stages)
		})
	}
	sess := make([]*Session, K)
	return tptest.Lockstep(comms, func(c runtime.Comm, iter int) error {
		me := c.Rank()
		if iter == 0 {
			var err error
			if sess[me], err = NewSession(c, a, part, pat, opt); err != nil {
				return err
			}
		}
		_, err := sess[me].Multiply(x)
		return err
	})
}

// TestSessionMultiplyZeroAlloc gates the headline claim: a steady-state
// compiled Multiply allocates nothing on the chanpt transport, under both
// BL and STFW.
func TestSessionMultiplyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; the gate runs in the non-race CI job")
	}
	const K = 8
	a := testMatrix(t, 400, 3600, 50)
	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	pat, err := BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := vpt.NewBalanced(K, 3)
	x := testVector(a.Cols, 42)
	for _, cfg := range []struct {
		name string
		opt  Options
	}{
		{"BL", Options{Method: BL}},
		{"STFW", Options{Method: STFW, Topo: tp}},
		// The telemetry variants gate the overhead claim: counters, span
		// rings, and wrapped comms must not cost a single allocation in the
		// steady state.
		{"BL+telemetry", Options{Method: BL, Telemetry: telemetry.MustNew(telemetry.Config{Ranks: K, Stages: 1})}},
		{"STFW+telemetry", Options{Method: STFW, Topo: tp, Telemetry: telemetry.MustNew(telemetry.Config{Ranks: K, Stages: tp.N()})}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			multiply, stop := startAllocWorld(t, a, part, pat, cfg.opt, K, x)
			defer stop()
			// Learning iteration (STFW) plus warmup to fill the frame arena
			// and the transport's high-water marks.
			for i := 0; i < 5; i++ {
				if err := multiply(); err != nil {
					t.Fatal(err)
				}
			}
			var stepErr error
			avg := testing.AllocsPerRun(20, func() {
				if err := multiply(); err != nil && stepErr == nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if avg != 0 {
				t.Fatalf("steady-state Session.Multiply allocates %.2f times per op across %d ranks, want 0", avg, K)
			}
			if reg := cfg.opt.Telemetry; reg != nil {
				// The gate must not pass vacuously: the collectors saw the run.
				s := reg.Snapshot()
				tot := s.Totals()
				if tot.Sends == 0 || tot.SendBytes == 0 {
					t.Fatalf("telemetry recorded no frames: %+v", tot)
				}
				var spans int64
				for _, r := range s.Ranks {
					spans += r.SpanCount
				}
				if spans == 0 {
					t.Fatal("telemetry recorded no spans")
				}
			}
		})
	}
}
