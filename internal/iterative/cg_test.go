package iterative

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

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

// TestCGAgainstSerialOracle holds the preconditioned pipelined
// recurrence against the unpreconditioned textbook loop (SerialCG): over a
// zero-copy and a socket transport, powers of two, a fold-in/fold-out world
// and K=1, both exchange schemes. Every rank must stop at the same
// iteration (runCGOn), at most at the oracle's count, and — what the
// recursive residual alone would hide if the recurrences drifted — the
// assembled x must satisfy ||b - A x|| / ||b|| <= 10 Tol.
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
				if res.Iters > serialIters {
					t.Errorf("%s: %d iterations, the unpreconditioned loop takes %d", name, res.Iters, serialIters)
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

// serialJacobiPCG is the textbook Jacobi-preconditioned CG in one
// process, the oracle for CG's iteration count: x0 = 0, z = D^-1 r, and
// the same unpreconditioned stopping rule ||r|| / ||b|| < tol. It returns
// the iterations taken and the solution.
func serialJacobiPCG(t *testing.T, a *sparse.CSR, b []float64, tol float64, maxIter int) (int, []float64) {
	t.Helper()
	n := a.Rows
	dinv := make([]float64, n)
	for i := range dinv {
		cols, vals := a.Row(i)
		k, ok := slices.BinarySearch(cols, int32(i))
		if !ok || vals[k] <= 0 {
			t.Fatalf("row %d: no positive diagonal", i)
		}
		dinv[i] = 1 / vals[k]
	}
	dot := func(u, v []float64) float64 {
		var s float64
		for i := range u {
			s += u[i] * v[i]
		}
		return s
	}
	x := make([]float64, n)
	r := slices.Clone(b)
	z := make([]float64, n)
	for i := range z {
		z[i] = dinv[i] * r[i]
	}
	p := slices.Clone(z)
	rz, bb := dot(r, z), dot(b, b)
	for it := 0; it < maxIter; it++ {
		q, err := a.MulVec(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		alpha := rz / dot(p, q)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		if math.Sqrt(dot(r, r)/bb) < tol {
			return it + 1, x
		}
		for i := range z {
			z[i] = dinv[i] * r[i]
		}
		rzNew := dot(r, z)
		for i := range p {
			p[i] = z[i] + rzNew/rz*p[i]
		}
		rz = rzNew
	}
	return maxIter, x
}

// TestCGMatchesSerialJacobiPCG holds the pipelined recurrence to the
// textbook one on the benchmark's CG instances: the gupta2 analog at scale
// 8 made SPD, with seeds 1-6 for matrix and right-hand side, solved to
// 1e-10 at K=64 on T3(4,4,4) over chanpt. Pipelining reorders the
// arithmetic, never the iteration count.
func TestCGMatchesSerialJacobiPCG(t *testing.T) {
	const K, tol = 64, 1e-10
	e, err := sparse.Lookup("gupta2")
	if err != nil {
		t.Fatal(err)
	}
	tp := vpt.MustNew(4, 4, 4)
	for seed := int64(1); seed <= 6; seed++ {
		params := sparse.ScaleParams(e.Params, 8)
		params.Seed = seed
		base, err := sparse.Generate(params)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sparse.DiagonallyDominant(base, 2)
		if err != nil {
			t.Fatal(err)
		}
		b := rhs(a.Rows, seed)
		want, _ := serialJacobiPCG(t, a, b, tol, 1000)
		part, err := partition.Greedy(a, K, partition.DefaultGreedy())
		if err != nil {
			t.Fatal(err)
		}
		x, res := runCG(t, a, part, b, CGOptions{Tol: tol, Comm: spmv.Options{Method: spmv.STFW, Topo: tp}})
		t.Logf("seed %d: CG %d iterations, serial Jacobi-PCG %d, true residual %.3g", seed, res.Iters, want, residualNorm(a, x, b))
		if !res.Converged || res.Iters != want {
			t.Errorf("seed %d: CG %+v, serial Jacobi-PCG takes %d iterations", seed, res, want)
		}
		if got := residualNorm(a, x, b); got > 10*tol {
			t.Errorf("seed %d: true residual %g", seed, got)
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
// carried wantMul frames and every link inside it wantRed, that the rank
// has exchange links, and that it has reduction links exactly when wantRed
// is nonzero: a count of 0 is asserted by the links' absence.
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
	if mul == 0 || (red == 0) != (wantRed == 0) {
		t.Errorf("%s: rank %d has %d exchange links and %d reduction links, want %d frames on each reduction link",
			name, l.Rank(), mul, red, wantRed)
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

// TestReductionsPerIteration is the claim itself, as a count. A CG solve
// of Iters iterations is Iters+2 exchanges; under STFW its dot products
// ride the compiled exchanges' frames, so it sends no reduction frame at
// all, and under BL every exchange but the first is followed by an
// allreduce (Iters+1).
func TestReductionsPerIteration(t *testing.T) {
	const K = 8
	a := spdMatrix(t, 300)
	b := rhs(a.Rows, 8)
	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := vpt.New(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cgReductions := map[string]func(iters int) int{
		"BL":   func(iters int) int { return iters + 1 },
		"STFW": func(int) int { return 0 },
	}
	for name, comm := range map[string]spmv.Options{"BL": {Method: spmv.BL}, "STFW": {Method: spmv.STFW, Topo: tp}} {
		comms, counters := countingWorld(t, K)
		_, res := runCGOn(t, comms, a, part, b, CGOptions{Comm: comm})
		if !res.Converged {
			t.Fatalf("CG %s: not converged: %+v", name, res)
		}
		for _, l := range counters {
			l.assertCounts(t, "CG "+name, res.Iters+2, cgReductions[name](res.Iters))
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
	// BL and STFW move identical values, so the iterates differ only by
	// the order their dot products are summed in (BL's allreduce tree,
	// STFW's digit-order sum lane): rounding, which must not move the
	// iteration count.
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

// cgErrs runs CG on a channel world with rank r solving mats[r] and
// returns every rank's error. A world still running after 10 s is closed
// and the test fails: a rank left waiting in an exchange is exactly what
// the collective non-SPD checks exist to prevent.
func cgErrs(t *testing.T, mats []*sparse.CSR, part *partition.Partition, b []float64) []error {
	t.Helper()
	pat, err := spmv.BuildPattern(mats[0], part)
	if err != nil {
		t.Fatal(err)
	}
	w, err := chanpt.NewWorld(part.K, part.K)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, part.K)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(func(c runtime.Comm) error {
			_, errs[c.Rank()] = CG(c, mats[c.Rank()], part, pat, b, CGOptions{})
			return nil
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		w.Close()
		t.Fatal("CG still running on some rank after 10 s")
	}
	return errs
}

// TestCGNonSPDFails: a missing or non-positive diagonal is rejected by the
// first reduction, before iteration 0, on every rank — including when only
// one rank can see the bad row. An indefinite matrix with a positive
// diagonal is rejected on p.Ap <= 0, whether that shows in the first
// reduction (where p.Ap is w.u itself) or only in the recurrence's
// denominator an iteration later.
func TestCGNonSPDFails(t *testing.T) {
	checkAll := func(name string, errs []error, want string) {
		t.Helper()
		for r, err := range errs {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: rank %d: got %v, want an error containing %q", name, r, err, want)
			}
		}
	}
	pair, _ := partition.Block(2, 2)
	for _, d := range [][2]float64{{-5, 1}, {5, -1}} {
		a, err := sparse.FromTriples(2, 2, []sparse.Triple{
			{Row: 0, Col: 0, Val: d[0]}, {Row: 1, Col: 1, Val: d[1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		errs := cgErrs(t, []*sparse.CSR{a, a}, pair, []float64{1, 1})
		checkAll(fmt.Sprintf("diag%v", d), errs, "iterative: 1 rows with a non-positive diagonal")
	}

	// One row's diagonal negated in its owner's copy only: the other seven
	// ranks learn of it from the first reduction or not at all.
	const K, row = 8, 21
	a := spdMatrix(t, 64)
	part, _ := partition.Block(a.Rows, K)
	bad := *a
	bad.Val = slices.Clone(a.Val)
	cols, _ := a.Row(row)
	k, ok := slices.BinarySearch(cols, int32(row))
	if !ok {
		t.Fatalf("row %d has no diagonal", row)
	}
	bad.Val[a.RowPtr[row]+int64(k)] *= -1
	mats := make([]*sparse.CSR, K)
	for r := range mats {
		mats[r] = a
	}
	mats[part.Part[row]] = &bad
	checkAll("K=8 one rank", cgErrs(t, mats, part, rhs(a.Rows, 9)), "iterative: 1 rows with a non-positive diagonal")

	// [[1,2],[2,1]]: unit diagonal, so u = r and the dots are plain CG's.
	ind, err := sparse.FromTriples(2, 2, []sparse.Triple{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 0, Val: 2}, {Row: 1, Col: 1, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		b  []float64
		at string
	}{
		{[]float64{1, -1}, "iteration 0"}, // w0.r0 = -2
		{[]float64{1, 0}, "iteration 1"},  // w0.r0 = 1, then p1.A p1 = 4 - 4*4/1 = -12
	} {
		errs := cgErrs(t, []*sparse.CSR{ind, ind}, pair, tc.b)
		checkAll(fmt.Sprintf("indefinite b=%v", tc.b), errs, "<= 0 at "+tc.at)
	}
}

// TestCGJacobiScalingInvariant pins what the preconditioner buys. Jacobi
// PCG on (S A S, S b) runs the same iteration as on (A, b) for any positive
// diagonal S, so a six-decade row scaling moves CG's count by rounding
// only, while the unpreconditioned loop pays for it: SerialCG exhausts its
// default budget of 320 iterations on the scaled system (36 unscaled).
func TestCGJacobiScalingInvariant(t *testing.T) {
	const K, tol = 8, 1e-10
	a := spdMatrix(t, 512)
	b := rhs(a.Rows, 7)
	rng := rand.New(rand.NewSource(11))
	scale := make([]float64, a.Rows)
	for i := range scale {
		scale[i] = math.Pow(10, -3+6*rng.Float64())
	}
	sa := *a
	sa.Val = make([]float64, len(a.Val))
	sb := make([]float64, len(b))
	for i := 0; i < a.Rows; i++ {
		sb[i] = scale[i] * b[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			sa.Val[k] = scale[i] * a.Val[k] * scale[a.ColIdx[k]]
		}
	}
	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		t.Fatal(err)
	}
	tp, err := vpt.New(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Iterations to converge or the default budget, whichever is fewer.
	_, serialScaled, err := SerialCG(&sa, sb, 0, tol)
	if err != nil {
		t.Fatal(err)
	}
	for scheme, comm := range map[string]spmv.Options{"BL": {Method: spmv.BL}, "STFW": {Method: spmv.STFW, Topo: tp}} {
		opt := CGOptions{Tol: tol, Comm: comm}
		x, res := runCG(t, a, part, b, opt)
		sx, sres := runCG(t, &sa, part, sb, opt)
		t.Logf("%s: %d iterations on (A, b), %d on (SAS, Sb); SerialCG on (SAS, Sb) %d", scheme, res.Iters, sres.Iters, serialScaled)
		for _, tc := range []struct {
			name string
			m    *sparse.CSR
			x, b []float64
			res  *CGResult
		}{{"(A, b)", a, x, b, res}, {"(SAS, Sb)", &sa, sx, sb, sres}} {
			if !tc.res.Converged {
				t.Errorf("%s %s: not converged: %+v", scheme, tc.name, tc.res)
			}
			if got := residualNorm(tc.m, tc.x, tc.b); got > 10*tol {
				t.Errorf("%s %s: true residual %g after %d iterations", scheme, tc.name, got, tc.res.Iters)
			}
		}
		if d := sres.Iters - res.Iters; d < -2 || d > 2 {
			t.Errorf("%s: scaling moved CG from %d to %d iterations", scheme, res.Iters, sres.Iters)
		}
		if serialScaled < 5*sres.Iters {
			t.Errorf("%s: SerialCG needs %d iterations on the scaled system, CG %d: under 5x", scheme, serialScaled, sres.Iters)
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
