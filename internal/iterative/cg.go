// Package iterative implements a distributed conjugate gradient solver on
// top of the row-parallel SpMV and the collectives — the iterative-solver
// setting the paper's line of work targets (irregular SpMV communication
// repeated every iteration is exactly where regularizing the exchange pays
// off, since the pattern is fixed and the latency cost recurs).
//
// Vectors are distributed conformally with the matrix rows: each rank holds
// full-length slices but only its owned entries are meaningful. The SpMV
// exchange (BL or STFW) moves the halo entries; dot products reduce owned
// partial sums with an allreduce.
//
// A latency-bound solver pays per message, and once the exchange is
// regularized the reductions are where the messages are: at K=64 an STFW
// exchange on T3(4,4,4) is 9 frames per rank, and an allreduce - a
// reduce/broadcast tree, 126 frames per world, under 2 per rank - is a
// chain of 6 dependent hops that nothing overlaps. So CG runs the single-reduction recurrence of Chronopoulos and Gear: one
// SpMV and one 2-word allreduce per iteration, where the textbook loop
// (kept as SerialCG, the tests' oracle) has one SpMV and two reductions
// that cannot be combined because the second depends on the first.
package iterative

import (
	"fmt"
	"math"

	"stfw/internal/collectives"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/spmv"
)

// CGOptions configures the solver.
type CGOptions struct {
	// MaxIter bounds the iteration count; 0 means 10 * sqrt(n) + 100.
	MaxIter int
	// Tol is the relative residual target ||r|| / ||b||; 0 means 1e-10.
	Tol float64
	// Comm selects the exchange scheme of the SpMV (BL or STFW+topology).
	Comm spmv.Options
}

// CGResult reports the outcome on each rank. X holds the full-length
// solution vector with this rank's owned entries filled; assemble the
// global solution with spmv.Reduce.
type CGResult struct {
	X         []float64
	Iters     int
	Residual  float64 // final relative residual
	Converged bool
}

// CG solves A x = b for a symmetric positive definite A, collectively
// across all ranks of c. Every rank passes the same replicated A, partition,
// pattern and right-hand side; the returned X carries the rank's owned
// entries.
//
// The recurrence (Chronopoulos & Gear 1989). The textbook iteration needs
// p.Ap before it can update r, and r.r after; with w = A r and s = A p,
//
//	p = r + beta p          gives   s = w + beta s          (no SpMV), and
//	p.Ap = w.r - (beta/alpha_prev) r.r                       (no reduction),
//
// so gamma = r.r and delta = w.r, both known right after the one SpMV of
// the new residual, are all an iteration has to reduce. With x0 = 0 the
// first pair also carries b.b (r0 = b) and the first p.Ap (p0 = r0): a
// solve of Iters iterations is Iters+1 SpMVs and Iters+1 allreduces.
//
// Stability. In exact arithmetic the iterates are the textbook ones. In
// floating point p.Ap comes out of a subtraction and s out of a
// recurrence, so the recursive residual r can drift from b - A x a little
// sooner; on the diagonally dominant systems here it costs at most an
// iteration or two. Residual is the recursive one; the tests hold the
// true residual of the assembled solution within 10 Tol.
func CG(c runtime.Comm, a *sparse.CSR, part *partition.Partition, pat *spmv.Pattern, b []float64, opt CGOptions) (*CGResult, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("iterative: matrix must be square")
	}
	if len(b) != n {
		return nil, fmt.Errorf("iterative: b length %d != n %d", len(b), n)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 10*int(math.Sqrt(float64(n))) + 100
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	// A session reuses the exchange pattern across iterations; under STFW
	// the store-and-forward frame layout is learned once, then compiled and
	// replayed. The session also caches the owned-row list.
	sess, err := spmv.NewSession(c, a, part, pat, opt.Comm)
	if err != nil {
		return nil, err
	}
	owned := sess.OwnedRows()

	// step computes w = A r and reduces (r.r, w.r) in one allreduce. w is
	// the session's buffer, valid until the next step.
	step := func(r []float64, it int) (w []float64, gamma, delta float64, err error) {
		if w, err = sess.Multiply(r); err != nil {
			return nil, 0, 0, fmt.Errorf("iterative: iteration %d SpMV: %w", it, err)
		}
		var dots [2]float64
		for _, i := range owned {
			dots[0] += r[i] * r[i]
			dots[1] += w[i] * r[i]
		}
		if err = collectives.AllreduceInPlace(c, dots[:], collectives.Sum); err != nil {
			return nil, 0, 0, err
		}
		return w, dots[0], dots[1], nil
	}

	x := make([]float64, n)
	r := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n) // A p
	for _, i := range owned {
		r[i] = b[i] // x0 = 0 -> r = b
	}
	w, gamma, pAp, err := step(r, 0)
	if err != nil {
		return nil, err
	}
	bNorm2 := gamma
	if bNorm2 == 0 {
		return &CGResult{X: x, Converged: true}, nil
	}

	res := &CGResult{X: x}
	beta := 0.0 // p0 = r0, s0 = w0
	for it := 0; it < opt.MaxIter; it++ {
		if pAp <= 0 {
			return nil, fmt.Errorf("iterative: p.Ap = %g <= 0 at iteration %d (matrix not SPD?)", pAp, it)
		}
		alpha := gamma / pAp
		for _, i := range owned {
			p[i] = r[i] + beta*p[i]
			s[i] = w[i] + beta*s[i]
			x[i] += alpha * p[i]
			r[i] -= alpha * s[i]
		}
		var gammaNew, delta float64
		if w, gammaNew, delta, err = step(r, it+1); err != nil {
			return nil, err
		}
		res.Iters = it + 1
		res.Residual = math.Sqrt(gammaNew / bNorm2)
		if res.Residual < opt.Tol {
			res.Converged = true
			return res, nil
		}
		beta = gammaNew / gamma
		pAp = delta - beta*gammaNew/alpha
		gamma = gammaNew
	}
	return res, nil
}

// SerialCG is the single-process reference implementation used to validate
// the distributed solver: the textbook two-dot-product loop, deliberately
// not the recurrence CG runs.
func SerialCG(a *sparse.CSR, b []float64, maxIter int, tol float64) ([]float64, int, error) {
	n := a.Rows
	if maxIter <= 0 {
		maxIter = 10*int(math.Sqrt(float64(n))) + 100
	}
	if tol <= 0 {
		tol = 1e-10
	}
	x := make([]float64, n)
	r := append([]float64(nil), b...)
	p := append([]float64(nil), b...)
	dot := func(u, v []float64) float64 {
		var s float64
		for i := range u {
			s += u[i] * v[i]
		}
		return s
	}
	bNorm2 := dot(b, b)
	if bNorm2 == 0 {
		return x, 0, nil
	}
	rs := dot(r, r)
	for it := 0; it < maxIter; it++ {
		q, err := a.MulVec(nil, p)
		if err != nil {
			return nil, 0, err
		}
		pq := dot(p, q)
		if pq <= 0 {
			return nil, 0, fmt.Errorf("iterative: serial CG: matrix not SPD")
		}
		alpha := rs / pq
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
		}
		rsNew := dot(r, r)
		if math.Sqrt(rsNew/bNorm2) < tol {
			return x, it + 1, nil
		}
		beta := rsNew / rs
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rs = rsNew
	}
	return x, maxIter, nil
}
