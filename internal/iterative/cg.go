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
// chain of 6 dependent hops that nothing overlaps. So CG runs the
// single-reduction recurrence of Chronopoulos and Gear: one SpMV and one
// 3-word allreduce per iteration, where the textbook loop (kept as SerialCG,
// the tests' oracle) has one SpMV and two reductions that cannot be
// combined because the second depends on the first.
//
// The cheapest exchange is the one the solver never runs, so the recurrence
// is preconditioned with the matrix diagonal (Jacobi). The diagonally
// dominant systems here carry a diagonal spread of hundreds to one (a_ii =
// sum|a_ij| + margin, so hub rows dwarf leaf rows), and plain CG spends its
// iterations on that row scaling rather than on the graph. Jacobi-PCG is
// invariant under symmetric diagonal scaling (S A S, S b) and costs no
// communication: each rank scales its owned residual entries by its owned
// rows' 1/a_ii. On the SPD gupta2 analog (7 758 rows, diagonal 3.0 to
// 1559.5) a solve to 1e-10 falls from 110 iterations to 21.
package iterative

import (
	"fmt"
	"math"
	"slices"

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
// The recurrence (Chronopoulos & Gear 1989, Jacobi-preconditioned). With
// D the diagonal of A, the preconditioned residual u = D^-1 r, w = A u and
// s = A p, the textbook PCG iteration's search direction and its image are
//
//	p = u + beta p          gives   s = w + beta s          (no SpMV), and
//	p.Ap = w.u - (beta/alpha_prev) r.u                       (no reduction),
//
// so gamma = r.u and delta = w.u, both known right after the one SpMV of
// the new preconditioned residual, are what an iteration has to reduce;
// r.r rides along as the third word for the stopping test. With x0 = 0
// the first reduction carries b.b (r0 = b) in that word and the first
// p.Ap (p0 = u0): a solve of Iters iterations is Iters+1 SpMVs and Iters+1
// allreduces.
//
// The stopping rule is the unpreconditioned one, ||r|| / ||b|| < Tol, and
// Residual reports that ratio. With a unit diagonal u = r bit for bit and
// every dot is the same sum in the same order as the unpreconditioned
// recurrence, so the iterates are exactly those of plain CG.
//
// Non-SPD input. A row whose diagonal is missing or non-positive cannot
// belong to an SPD matrix; each rank counts its owned ones into a fourth
// word of the first reduction, so every rank sees the same total and
// returns the same error before iteration 0 — none is left waiting in the
// next exchange. An indefinite matrix with a positive diagonal is caught
// on p.Ap <= 0, which every rank computes from the same reduced values.
//
// Stability. In exact arithmetic the iterates are the textbook PCG ones.
// In floating point p.Ap comes out of a subtraction and s out of a
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

	// dinv holds 1/a_ii for the owned rows. A row without a positive
	// diagonal keeps 0 and is counted; the first reduction sums the counts.
	dinv := make([]float64, n)
	var nonPositive float64
	for _, i := range owned {
		cols, vals := a.Row(i)
		if k, ok := slices.BinarySearch(cols, int32(i)); ok && vals[k] > 0 {
			dinv[i] = 1 / vals[k]
		} else {
			nonPositive++
		}
	}

	// step computes u = D^-1 r and w = A u and reduces dots = (r.u, w.u,
	// r.r) in one allreduce; the first step carries the non-positive
	// diagonal count as a fourth word. w is the session's buffer, valid
	// until the next step.
	u := make([]float64, n)
	var dots [4]float64
	step := func(r []float64, it int) (w []float64, err error) {
		for _, i := range owned {
			u[i] = dinv[i] * r[i]
		}
		if w, err = sess.Multiply(u); err != nil {
			return nil, fmt.Errorf("iterative: iteration %d SpMV: %w", it, err)
		}
		words := dots[:3]
		if it == 0 {
			words, dots[3] = dots[:4], nonPositive
		}
		dots[0], dots[1], dots[2] = 0, 0, 0
		for _, i := range owned {
			dots[0] += r[i] * u[i]
			dots[1] += w[i] * u[i]
			dots[2] += r[i] * r[i]
		}
		if err = collectives.AllreduceInPlace(c, words, collectives.Sum); err != nil {
			return nil, err
		}
		return w, nil
	}

	x := make([]float64, n)
	r := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n) // A p
	for _, i := range owned {
		r[i] = b[i] // x0 = 0 -> r = b
	}
	w, err := step(r, 0)
	if err != nil {
		return nil, err
	}
	if dots[3] > 0 {
		return nil, fmt.Errorf("iterative: %d rows with a non-positive diagonal (matrix not SPD)", int(dots[3]))
	}
	gamma, pAp, bNorm2 := dots[0], dots[1], dots[2]
	if bNorm2 == 0 {
		return &CGResult{X: x, Converged: true}, nil
	}

	res := &CGResult{X: x}
	beta := 0.0 // p0 = u0, s0 = w0
	for it := 0; it < opt.MaxIter; it++ {
		if pAp <= 0 {
			return nil, fmt.Errorf("iterative: p.Ap = %g <= 0 at iteration %d (matrix not SPD?)", pAp, it)
		}
		alpha := gamma / pAp
		for _, i := range owned {
			p[i] = u[i] + beta*p[i]
			s[i] = w[i] + beta*s[i]
			x[i] += alpha * p[i]
			r[i] -= alpha * s[i]
		}
		if w, err = step(r, it+1); err != nil {
			return nil, err
		}
		gammaNew, delta := dots[0], dots[1]
		res.Iters = it + 1
		res.Residual = math.Sqrt(dots[2] / bNorm2)
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
