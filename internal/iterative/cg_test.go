package iterative

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"stfw/internal/collectives"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/spmv"
	"stfw/internal/transport/chanpt"
	"stfw/internal/transport/udpnet"
	"stfw/internal/vpt"
)

// spdMatrix builds a random symmetric positive definite test matrix.
func spdMatrix(t testing.TB, rows int) *sparse.CSR {
	t.Helper()
	base, err := sparse.Generate(sparse.GenParams{
		Name: "cgtest", Rows: rows, TargetNNZ: rows * 8, MaxDegree: rows / 4,
		HubRows: 2, Band: 3, TailFrac: 0.2, TailSkew: 1.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sparse.DiagonallyDominant(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func rhs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func residualNorm(a *sparse.CSR, x, b []float64) float64 {
	ax, _ := a.MulVec(nil, x)
	var rr, bb float64
	for i := range b {
		d := b[i] - ax[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}

func TestDiagonallyDominantIsSPDish(t *testing.T) {
	a := spdMatrix(t, 200)
	// Diagonal strictly dominates every row.
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		var diag, off float64
		for k, c := range cols {
			if int(c) == i {
				diag = vals[k]
			} else {
				off += math.Abs(vals[k])
			}
		}
		if diag <= off {
			t.Fatalf("row %d not dominant: diag %g vs off %g", i, diag, off)
		}
	}
	if !a.IsSymmetricPattern() {
		t.Fatal("pattern not symmetric")
	}
}

func TestSerialCGConverges(t *testing.T) {
	a := spdMatrix(t, 300)
	b := rhs(a.Rows, 1)
	x, iters, err := SerialCG(a, b, 0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if res := residualNorm(a, x, b); res > 1e-8 {
		t.Errorf("serial CG residual %g after %d iters", res, iters)
	}
}

// runCG executes the distributed CG over a channel world and assembles the
// solution.
func runCG(t *testing.T, a *sparse.CSR, part *partition.Partition, b []float64, opt CGOptions) ([]float64, *CGResult) {
	t.Helper()
	w, err := chanpt.NewWorld(part.K, part.K)
	if err != nil {
		t.Fatal(err)
	}
	return runCGOn(t, w.Comms(), a, part, b, opt)
}

// runCGOn executes the distributed CG over the given world, checks that
// the ranks agree on the outcome and assembles the solution.
func runCGOn(t *testing.T, comms []runtime.Comm, a *sparse.CSR, part *partition.Partition, b []float64, opt CGOptions) ([]float64, *CGResult) {
	t.Helper()
	pat, err := spmv.BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*CGResult, part.K)
	err = runtime.Run(comms, func(c runtime.Comm) error {
		res, err := CG(c, a, part, pat, b, opt)
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, part.K)
	for r, res := range results {
		xs[r] = res.X
		if res.Iters != results[0].Iters || res.Converged != results[0].Converged {
			t.Fatalf("ranks disagree on outcome: %+v vs %+v", res, results[0])
		}
	}
	x, err := spmv.Reduce(part, xs)
	if err != nil {
		t.Fatal(err)
	}
	return x, results[0]
}

// TestCGAgainstSerialOracle holds the single-reduction recurrence against
// the textbook loop it replaced (SerialCG): over a zero-copy and a socket
// transport, powers of two, a fold-in/fold-out world and K=1, both exchange
// schemes. Every rank must stop at the same iteration (runCGOn), within
// two of the oracle's count, and — what the recursive residual alone would
// hide if the recurrences drifted — the assembled x must satisfy
// ||b - A x|| / ||b|| <= 10 Tol.
func TestCGAgainstSerialOracle(t *testing.T) {
	const tol = 1e-10
	a := spdMatrix(t, 512)
	b := rhs(a.Rows, 7)
	_, serialIters, err := SerialCG(a, b, 0, tol)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		K    int
		dims []int // STFW topology; nil: BL only
	}{{1, nil}, {4, []int{2, 2}}, {6, []int{2, 3}}, {8, []int{2, 2, 2}}, {64, []int{4, 4, 4}}} {
		part, err := partition.Greedy(a, tc.K, partition.DefaultGreedy())
		if err != nil {
			t.Fatal(err)
		}
		schemes := map[string]spmv.Options{"BL": {Method: spmv.BL}}
		if tc.dims != nil {
			tp, err := vpt.New(tc.dims...)
			if err != nil {
				t.Fatal(err)
			}
			schemes["STFW"] = spmv.Options{Method: spmv.STFW, Topo: tp}
		}
		for scheme, comm := range schemes {
			cw, err := chanpt.NewWorld(tc.K, tc.K)
			if err != nil {
				t.Fatal(err)
			}
			uw, err := udpnet.NewWorld(tc.K)
			if err != nil {
				t.Fatal(err)
			}
			for transport, comms := range map[string][]runtime.Comm{"chanpt": cw.Comms(), "udpnet": uw.Comms()} {
				name := fmt.Sprintf("%s K=%d %s", transport, tc.K, scheme)
				x, res := runCGOn(t, comms, a, part, b, CGOptions{Tol: tol, Comm: comm})
				if !res.Converged {
					t.Errorf("%s: not converged: %+v", name, res)
				}
				if res.Iters > serialIters+2 {
					t.Errorf("%s: %d iterations, the two-reduction loop takes %d", name, res.Iters, serialIters)
				}
				got := residualNorm(a, x, b)
				t.Logf("%s: %d iterations (serial %d), residual recursive %.3g true %.3g", name, res.Iters, serialIters, res.Residual, got)
				if got > 10*tol {
					t.Errorf("%s: true residual %g after %d iterations (recursive %g)", name, got, res.Iters, res.Residual)
				}
			}
			uw.Close()
		}
	}
}

// linkCounter counts the frames one rank sends per (peer, tag). Every
// Multiply puts exactly one frame on each exchange link the rank has and
// every allreduce one on each of its round links, so the counts say how
// many of each a solve ran.
type linkCounter struct {
	runtime.Passthrough
	sends map[[2]int]int
}

func (l *linkCounter) Send(to, tag int, payload []byte) error {
	l.sends[[2]int{to, tag}]++
	return l.Comm.Send(to, tag, payload)
}

// assertCounts checks that every link outside the collectives' tag span
// carried wantMul frames, every link inside it wantRed, and that the rank
// has links of both kinds.
func (l *linkCounter) assertCounts(t *testing.T, name string, wantMul, wantRed int) {
	t.Helper()
	lo, hi := collectives.TagSpan()
	var mul, red int
	for link, n := range l.sends {
		want, kind := wantMul, &mul
		if link[1] >= lo && link[1] < hi {
			want, kind = wantRed, &red
		}
		*kind++
		if n != want {
			t.Errorf("%s: rank %d sent %d frames to rank %d on tag %#x, want %d", name, l.Rank(), n, link[0], link[1], want)
		}
	}
	if mul == 0 || red == 0 {
		t.Errorf("%s: rank %d has %d exchange links and %d reduction links; the count is vacuous", name, l.Rank(), mul, red)
	}
}

func countingWorld(t *testing.T, K int) ([]runtime.Comm, []*linkCounter) {
	t.Helper()
	w, err := chanpt.NewWorld(K, K)
	if err != nil {
		t.Fatal(err)
	}
	comms := w.Comms()
	counters := make([]*linkCounter, K)
	for r := range comms {
		counters[r] = &linkCounter{Passthrough: runtime.Passthrough{Comm: comms[r]}, sends: map[[2]int]int{}}
		comms[r] = counters[r]
	}
	return comms, counters
}

// TestOneReductionPerIteration is the claim itself, as a count: a solve of
// Iters iterations is Iters+1 SpMVs and Iters+1 allreduces (the textbook
// loop: Iters and 2 Iters + 2), and a power iteration of Iters steps is
// Iters SpMVs and Iters+1 allreduces (was 2 Iters + 1).
func TestOneReductionPerIteration(t *testing.T) {
	const K = 8
	a := spdMatrix(t, 300)
	b := rhs(a.Rows, 8)
	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	pat, err := spmv.BuildPattern(a, part)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := vpt.New(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, comm := range map[string]spmv.Options{"BL": {Method: spmv.BL}, "STFW": {Method: spmv.STFW, Topo: tp}} {
		comms, counters := countingWorld(t, K)
		_, res := runCGOn(t, comms, a, part, b, CGOptions{Comm: comm})
		if !res.Converged {
			t.Fatalf("CG %s: not converged: %+v", name, res)
		}
		for _, l := range counters {
			l.assertCounts(t, "CG "+name, res.Iters+1, res.Iters+1)
		}

		comms, counters = countingWorld(t, K)
		iters := make([]int, K)
		err := runtime.Run(comms, func(c runtime.Comm) error {
			res, err := PowerIteration(c, a, part, pat, PowerOptions{Tol: 1e-6, Comm: comm})
			if err == nil && !res.Converged {
				err = fmt.Errorf("not converged: %+v", res)
			}
			if err == nil {
				iters[c.Rank()] = res.Iters
			}
			return err
		})
		if err != nil {
			t.Fatalf("power %s: %v", name, err)
		}
		for r, l := range counters {
			l.assertCounts(t, "power "+name, iters[r], iters[r]+1)
		}
	}
}

func TestDistributedCGMatchesSerialBL(t *testing.T) {
	a := spdMatrix(t, 400)
	b := rhs(a.Rows, 2)
	part, err := partition.Greedy(a, 8, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	x, res := runCG(t, a, part, b, CGOptions{Comm: spmv.Options{Method: spmv.BL}})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if got := residualNorm(a, x, b); got > 1e-8 {
		t.Errorf("residual %g", got)
	}
}

func TestDistributedCGMatchesSerialSTFW(t *testing.T) {
	a := spdMatrix(t, 400)
	b := rhs(a.Rows, 3)
	for _, c := range []struct{ K, dim int }{{16, 2}, {16, 4}, {32, 5}} {
		part, err := partition.Greedy(a, c.K, partition.DefaultGreedy())
		if err != nil {
			t.Fatal(err)
		}
		tp, err := vpt.NewBalanced(c.K, c.dim)
		if err != nil {
			t.Fatal(err)
		}
		x, res := runCG(t, a, part, b, CGOptions{
			Comm: spmv.Options{Method: spmv.STFW, Topo: tp},
		})
		if !res.Converged {
			t.Fatalf("K=%d dim=%d did not converge: %+v", c.K, c.dim, res)
		}
		if got := residualNorm(a, x, b); got > 1e-8 {
			t.Errorf("K=%d dim=%d residual %g", c.K, c.dim, got)
		}
	}
}

func TestCGSchemesAgreeIterForIter(t *testing.T) {
	// BL and STFW move identical values, so the iterates are bit-for-bit
	// comparable up to floating-point reduction order; with the same
	// deterministic reduction order (allreduce tree identical), iteration
	// counts must match exactly.
	a := spdMatrix(t, 300)
	b := rhs(a.Rows, 4)
	part, err := partition.Greedy(a, 16, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	tp, _ := vpt.NewBalanced(16, 4)
	_, resBL := runCG(t, a, part, b, CGOptions{Comm: spmv.Options{Method: spmv.BL}})
	_, resST := runCG(t, a, part, b, CGOptions{Comm: spmv.Options{Method: spmv.STFW, Topo: tp}})
	if resBL.Iters != resST.Iters {
		t.Errorf("BL took %d iters, STFW %d", resBL.Iters, resST.Iters)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := spdMatrix(t, 100)
	part, _ := partition.Block(a.Rows, 4)
	x, res := runCG(t, a, part, make([]float64, a.Rows), CGOptions{Comm: spmv.Options{Method: spmv.BL}})
	if !res.Converged || res.Iters != 0 {
		t.Errorf("zero rhs: %+v", res)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("nonzero solution for zero rhs")
		}
	}
}

func TestCGValidation(t *testing.T) {
	a := spdMatrix(t, 64)
	part, _ := partition.Block(a.Rows, 4)
	pat, _ := spmv.BuildPattern(a, part)
	w, _ := chanpt.NewWorld(4, 4)
	err := w.Run(func(c runtime.Comm) error {
		if _, err := CG(c, a, part, pat, make([]float64, 5), CGOptions{}); err == nil {
			return errBadLen
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var errBadLen = &validationErr{}

type validationErr struct{}

func (*validationErr) Error() string { return "bad b length accepted" }

// TestCGNonSPDFails: an indefinite matrix is rejected on p.Ap <= 0, whether
// that shows in the first reduction (where p.Ap is w.r itself) or only in
// the recurrence's denominator an iteration later. Every rank must take
// the error branch, or the others hang in the next exchange.
func TestCGNonSPDFails(t *testing.T) {
	for _, tc := range []struct {
		diag [2]float64
		at   string
	}{
		{[2]float64{-5, 1}, "iteration 0"}, // r0.A r0 = -4
		{[2]float64{5, -1}, "iteration 1"}, // r0.A r0 = 4, then p1.A p1 = -11.25
	} {
		a, err := sparse.FromTriples(2, 2, []sparse.Triple{
			{Row: 0, Col: 0, Val: tc.diag[0]}, {Row: 1, Col: 1, Val: tc.diag[1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		part, _ := partition.Block(2, 2)
		pat, _ := spmv.BuildPattern(a, part)
		w, _ := chanpt.NewWorld(2, 2)
		errs := make([]error, 2)
		_ = w.Run(func(c runtime.Comm) error {
			_, errs[c.Rank()] = CG(c, a, part, pat, []float64{1, 1}, CGOptions{})
			return nil
		})
		for r, err := range errs {
			if err == nil || !strings.Contains(err.Error(), tc.at) {
				t.Errorf("diag %v: rank %d: got %v, want a p.Ap <= 0 error at %s", tc.diag, r, err, tc.at)
			}
		}
	}
}

func TestCGMaxIterExhausted(t *testing.T) {
	a := spdMatrix(t, 200)
	b := rhs(a.Rows, 6)
	part, _ := partition.Block(a.Rows, 4)
	_, res := runCG(t, a, part, b, CGOptions{MaxIter: 3, Comm: spmv.Options{Method: spmv.BL}})
	if res.Converged || res.Iters != 3 || !(res.Residual > 1e-10) {
		t.Errorf("MaxIter 3: %+v", res)
	}
}

func BenchmarkDistributedCG16(b *testing.B) {
	a := spdMatrix(b, 500)
	vec := rhs(a.Rows, 5)
	part, _ := partition.Greedy(a, 16, partition.DefaultGreedy())
	pat, _ := spmv.BuildPattern(a, part)
	tp, _ := vpt.NewBalanced(16, 4)
	opt := CGOptions{Comm: spmv.Options{Method: spmv.STFW, Topo: tp}, Tol: 1e-8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, _ := chanpt.NewWorld(16, 16)
		err := w.Run(func(c runtime.Comm) error {
			_, err := CG(c, a, part, pat, vec, opt)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
