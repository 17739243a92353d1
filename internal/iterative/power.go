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

// PowerOptions configures the distributed power iteration.
type PowerOptions struct {
	// MaxIter bounds the iterations; 0 means 1000.
	MaxIter int
	// Tol is the eigenvalue convergence threshold |lambda_k - lambda_{k-1}|;
	// 0 means 1e-10.
	Tol float64
	// Comm selects the SpMV exchange scheme.
	Comm spmv.Options
}

// PowerResult reports the dominant eigenpair estimate on each rank. Vec
// holds the rank's owned entries of the (2-normalized) eigenvector.
type PowerResult struct {
	Value     float64
	Vec       []float64
	Iters     int
	Converged bool
}

// PowerIteration estimates the dominant eigenvalue/eigenvector of a square
// matrix by repeated distributed SpMV with normalization — the
// graph-analytics workload (PageRank-style centrality on the co-authorship
// and citation matrices) whose per-superstep exchange the paper's scheme
// regularizes. Collective across all ranks of c.
func PowerIteration(c runtime.Comm, a *sparse.CSR, part *partition.Partition, pat *spmv.Pattern, opt PowerOptions) (*PowerResult, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("iterative: matrix must be square")
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 1000
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-10
	}
	sess, err := spmv.NewSession(c, a, part, pat, opt.Comm)
	if err != nil {
		return nil, err
	}
	// The session caches the owned-row list; the returned slice is
	// read-only shared state, which the solver only iterates.
	owned := sess.OwnedRows()

	// Deterministic non-degenerate start vector.
	x := make([]float64, n)
	var norm2 float64
	for _, i := range owned {
		x[i] = 1 + float64(i%7)/7
		norm2 += x[i] * x[i]
	}
	if norm2, err = collectives.AllreduceScalar(c, norm2, collectives.Sum); err != nil {
		return nil, err
	}
	scale := 1 / math.Sqrt(norm2)
	for _, i := range owned {
		x[i] *= scale
	}

	res := &PowerResult{Vec: x}
	prev := math.Inf(1)
	for it := 0; it < opt.MaxIter; it++ {
		y, err := sess.Multiply(x)
		if err != nil {
			return nil, fmt.Errorf("iterative: power iteration %d: %w", it, err)
		}
		// The Rayleigh quotient lambda = x.Ax (x is unit norm) and the
		// norm y.y are both known after the one SpMV: one 2-word allreduce.
		var dots [2]float64
		for _, i := range owned {
			dots[0] += x[i] * y[i]
			dots[1] += y[i] * y[i]
		}
		if err := collectives.AllreduceInPlace(c, dots[:], collectives.Sum); err != nil {
			return nil, err
		}
		lambda, norm2 := dots[0], dots[1]
		if norm2 == 0 {
			return nil, fmt.Errorf("iterative: power iteration degenerated to zero vector")
		}
		scale := 1 / math.Sqrt(norm2)
		for _, i := range owned {
			x[i] = y[i] * scale
		}
		res.Iters = it + 1
		res.Value = lambda
		if math.Abs(lambda-prev) < opt.Tol {
			res.Converged = true
			break
		}
		prev = lambda
	}
	res.Vec = x
	return res, nil
}
