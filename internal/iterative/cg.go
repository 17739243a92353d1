// Package iterative implements a distributed conjugate gradient solver on
// top of the row-parallel SpMV — the iterative-solver setting the paper's
// line of work targets (irregular SpMV communication repeated every
// iteration is exactly where regularizing the exchange pays off, since the
// pattern is fixed and the latency cost recurs).
//
// The SpMV input and CG's returned X are full-length slices of which each
// rank fills only its owned entries; every other vector the solver keeps is
// owned-length, indexed like spmv.Session.OwnedRows.
//
// A latency-bound solver pays per message, and once the exchange is
// regularized the reductions are where the messages are: at K=64 an STFW
// exchange on T3(4,4,4) is 9 frames per rank, and an allreduce - a
// reduce/broadcast tree, 126 frames per world, under 2 per rank - is a
// chain of 6 dependent hops that nothing overlaps. But the regularized
// exchange already sends a frame to every dimension neighbour in every
// stage, so a few words appended to those frames and folded stage by stage
// are an allreduce of their own (spmv.Session.MultiplySum). CG therefore
// runs the pipelined recurrence of Ghysels and Vanroose, whose dot products
// are known before the iteration's SpMV starts and can ride it: a solve
// sends no reduction message at all under STFW. The textbook loop (kept as
// SerialCG, the tests' oracle) takes its second dot product after its
// SpMV, so it could not.
//
// The cheapest exchange is the one the solver never runs, so the recurrence
// is preconditioned with the matrix diagonal (Jacobi). The diagonally
// dominant systems here carry a diagonal spread of hundreds to one (a_ii =
// sum|a_ij| + margin, so hub rows dwarf leaf rows), and plain CG spends its
// iterations on that row scaling rather than on the graph. Jacobi-PCG is
// invariant under symmetric diagonal scaling (S A S, S b) and costs no
// communication: each rank scales its owned entries by its owned rows'
// 1/a_ii. On the SPD gupta2 analog (7 758 rows, diagonal 3.0 to 1559.5) a
// solve to 1e-10 falls from 110 iterations to 21.
package iterative

import (
	"fmt"
	"math"
	"slices"

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
// The recurrence (Ghysels & Vanroose 2014, pipelined PCG, Jacobi-
// preconditioned). With D the diagonal of A, the preconditioned residual
// u = D^-1 r and w = A u, an iteration reduces gamma = r.u, delta = w.u
// and r.r while it computes m = D^-1 w and n = A m — the three words ride
// that SpMV's exchange — and then updates the search direction p and its
// images by recurrence, with no further SpMV:
//
//	beta = gamma / gamma_prev,  alpha = gamma / (delta - beta gamma / alpha_prev)
//	z = n + beta z,  q = m + beta q,  s = w + beta s,  p = u + beta p
//	x += alpha p,  r -= alpha s,  u -= alpha q,  w -= alpha z
//
// (s = A p, q = D^-1 s, z = A q; the first iteration has beta = 0.) With
// x0 = 0, r0 = b, and the first exchange computes w0 = A u0. The reduced
// words of iteration i describe r_i, so the stopping test on them comes
// one exchange after the update that produced r_i: a solve of Iters
// iterations is Iters+2 exchanges and, under STFW, no allreduce (under BL
// each exchange but the first is followed by a 3-word one).
//
// The stopping rule is the unpreconditioned one, ||r|| / ||b|| < Tol, and
// Residual reports that ratio. With a unit diagonal u = r bit for bit and
// every dot is the same sum in the same order as the unpreconditioned
// recurrence.
//
// Non-SPD input. A row whose diagonal is missing or non-positive cannot
// belong to an SPD matrix; each rank counts its owned ones into a fourth
// word of the first lane, so every rank sees the same total and returns
// the same error before any update — none is left waiting in the next
// exchange. An indefinite matrix with a positive diagonal is caught on
// p.Ap <= 0 (the alpha denominator), which every rank computes from the
// same reduced values.
//
// Stability. In exact arithmetic the iterates are the textbook PCG ones.
// In floating point p.Ap comes out of a subtraction and r, u and w out of
// recurrences, so the recursive residual r can drift from b - A x; on the
// diagonally dominant systems here it costs no iteration against textbook
// Jacobi-PCG. Residual is the recursive one; the tests hold the true
// residual of the assembled solution within 10 Tol.
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
	// it computes the store-and-forward frame layout from pat at creation,
	// without a learning run, so every exchange of the solve is a compiled
	// replay. The session also caches the owned-row list.
	sess, err := spmv.NewSession(c, a, part, pat, opt.Comm)
	if err != nil {
		return nil, err
	}
	owned := sess.OwnedRows()
	no := len(owned)

	// dinv holds 1/a_ii for the owned rows. A row without a positive
	// diagonal keeps 0 and is counted; the first lane sums the counts.
	vecs := make([]float64, 8*no)
	dinv := vecs[:no]
	u, w, r := vecs[no:2*no], vecs[2*no:3*no], vecs[3*no:4*no]
	z, q, s, p := vecs[4*no:5*no], vecs[5*no:6*no], vecs[6*no:7*no], vecs[7*no:]
	var nonPositive float64
	for k, i := range owned {
		cols, vals := a.Row(i)
		if j, ok := slices.BinarySearch(cols, int32(i)); ok && vals[j] > 0 {
			dinv[k] = 1 / vals[j]
		} else {
			nonPositive++
		}
	}

	// in is the SpMV input: u0 first, then m = D^-1 w in every iteration.
	// Only its owned entries are written; the session reads no other.
	in := make([]float64, n)
	x := make([]float64, n)
	for k, i := range owned {
		r[k] = b[i] // x0 = 0 -> r = b
		u[k] = dinv[k] * r[k]
		in[i] = u[k]
	}
	y, err := sess.Multiply(in)
	if err != nil {
		return nil, fmt.Errorf("iterative: initial SpMV: %w", err)
	}
	for k, i := range owned {
		w[k] = y[i]
	}

	res := &CGResult{X: x}
	var lane [4]float64
	var gamma, alpha, bNorm2 float64
	for it := 0; ; it++ {
		var ru, wu, rrOwn float64
		for k, i := range owned {
			ru += r[k] * u[k]
			wu += w[k] * u[k]
			rrOwn += r[k] * r[k]
			in[i] = dinv[k] * w[k]
		}
		lane[0], lane[1], lane[2] = ru, wu, rrOwn
		words := lane[:3]
		if it == 0 {
			words, lane[3] = lane[:4], nonPositive
		}
		if y, err = sess.MultiplySum(in, words); err != nil {
			return nil, fmt.Errorf("iterative: iteration %d SpMV: %w", it, err)
		}
		gammaNew, delta, rr := lane[0], lane[1], lane[2] // reduced
		if it == 0 {
			if lane[3] > 0 {
				return nil, fmt.Errorf("iterative: %d rows with a non-positive diagonal (matrix not SPD)", int(lane[3]))
			}
			if bNorm2 = rr; bNorm2 == 0 {
				return &CGResult{X: x, Converged: true}, nil
			}
		} else {
			res.Iters = it
			res.Residual = math.Sqrt(rr / bNorm2)
			if res.Residual < opt.Tol {
				res.Converged = true
				return res, nil
			}
			if it == opt.MaxIter {
				return res, nil
			}
		}

		beta, pAp := 0.0, delta // p0 = u0: p.Ap = w0.u0
		if it > 0 {
			beta = gammaNew / gamma
			pAp = delta - beta*gammaNew/alpha
		}
		if pAp <= 0 {
			return nil, fmt.Errorf("iterative: p.Ap = %g <= 0 at iteration %d (matrix not SPD?)", pAp, it)
		}
		alpha, gamma = gammaNew/pAp, gammaNew
		for k, i := range owned {
			z[k] = y[i] + beta*z[k]
			q[k] = in[i] + beta*q[k]
			s[k] = w[k] + beta*s[k]
			p[k] = u[k] + beta*p[k]
			x[i] += alpha * p[k]
			r[k] -= alpha * s[k]
			u[k] -= alpha * q[k]
			w[k] -= alpha * z[k]
		}
	}
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
