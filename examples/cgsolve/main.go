// Distributed conjugate gradient with a regularized exchange.
//
// Iterative solvers are where the paper's technique earns its keep: the
// SpMV communication pattern is fixed across hundreds of iterations, so its
// latency cost recurs every step and the one-time VPT setup is free by
// comparison. This example solves A x = b for a symmetric positive definite
// system derived from the pkustk04 analog (structural engineering, dense
// rows) on 32 ranks, once with direct messages and once through a T5
// virtual topology, and verifies both solutions against the serial solver.
// The distributed solver is Jacobi-preconditioned; the serial one is the
// unpreconditioned textbook loop, so the two iteration counts differ while
// the solutions agree. Under BL the solver's dot products go through an
// allreduce, under STFW they ride the exchange frames, so the two sum in
// different orders: they must agree on the iteration count and on the
// solution to solver accuracy, and a second STFW solve must repeat the
// first bit for bit.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"slices"

	"stfw"
	"stfw/internal/iterative"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/spmv"
)

const (
	K     = 32
	dim   = 5
	scale = 32
)

func main() {
	base, err := sparse.CatalogMatrix("pkustk04", scale)
	if err != nil {
		log.Fatal(err)
	}
	a, err := sparse.DiagonallyDominant(base, 2)
	if err != nil {
		log.Fatal(err)
	}
	st := sparse.ComputeStats(a)
	fmt.Printf("system: %d unknowns, %d nonzeros (SPD from the pkustk04 analog)\n",
		st.Rows, st.NNZ)

	rng := rand.New(rand.NewSource(99))
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	part, err := partition.Greedy(a, K, partition.DefaultGreedy())
	if err != nil {
		log.Fatal(err)
	}
	pat, err := spmv.BuildPattern(a, part)
	if err != nil {
		log.Fatal(err)
	}
	sends, err := pat.SendSets()
	if err != nil {
		log.Fatal(err)
	}
	topo, err := stfw.BalancedTopology(K, dim)
	if err != nil {
		log.Fatal(err)
	}

	// What the regularization does to the per-iteration exchange:
	bl, _ := stfw.BuildDirectPlan(sends)
	stp, _ := stfw.BuildPlan(topo, sends)
	blSum, _ := stfw.Summarize("BL", bl, sends)
	stSum, _ := stfw.Summarize("STFW", stp, sends)
	fmt.Printf("per-iteration exchange: BL mmax=%.0f | STFW%d mmax=%.0f (bound %d)\n\n",
		blSum.MMax, dim, stSum.MMax, stfw.MessageBound(topo))

	xSerial, iters, err := iterative.SerialCG(a, b, 0, 1e-10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serial CG (unpreconditioned): converged in %d iterations\n", iters)

	// The BL solve, then two STFW solves: the second must repeat the
	// first bit for bit.
	var sols [][]float64
	var solIters []int
	for _, opt := range []spmv.Options{
		{Method: spmv.BL},
		{Method: spmv.STFW, Topo: topo},
		{Method: spmv.STFW, Topo: topo},
	} {
		w, err := stfw.LocalWorld(K)
		if err != nil {
			log.Fatal(err)
		}
		results := make([]*iterative.CGResult, K)
		err = w.Run(func(c runtime.Comm) error {
			res, err := iterative.CG(c, a, part, pat, b, iterative.CGOptions{Comm: opt})
			if err != nil {
				return err
			}
			results[c.Rank()] = res
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		xs := make([][]float64, K)
		for r := range results {
			xs[r] = results[r].X
		}
		x, err := spmv.Reduce(part, xs)
		if err != nil {
			log.Fatal(err)
		}
		var maxDiff float64
		for i := range x {
			maxDiff = math.Max(maxDiff, math.Abs(x[i]-xSerial[i]))
		}
		fmt.Printf("%-5v: converged in %d iterations (unpreconditioned serial: %d), residual %.1e, max |x - x_serial| = %.2e\n",
			opt.Method, results[0].Iters, iters, results[0].Residual, maxDiff)
		if maxDiff > 1e-6 {
			log.Fatalf("%v solution diverges from serial", opt.Method)
		}
		sols = append(sols, x)
		solIters = append(solIters, results[0].Iters)
	}
	if solIters[0] != solIters[1] {
		log.Fatalf("BL converged in %d iterations, STFW in %d", solIters[0], solIters[1])
	}
	var blDiff float64
	for i := range sols[0] {
		blDiff = math.Max(blDiff, math.Abs(sols[0][i]-sols[1][i]))
	}
	if blDiff > 1e-8 {
		log.Fatalf("STFW solution differs from BL's by %.2e", blDiff)
	}
	if !slices.Equal(sols[1], sols[2]) {
		log.Fatal("two STFW solves differ")
	}
	fmt.Printf("\nBL and STFW take the same iterations (max |x_BL - x_STFW| = %.2e); a repeated\n", blDiff)
	fmt.Println("STFW solve is bit for bit the same. STFW sends no reduction message: its dot")
	fmt.Println("products ride the exchange frames, a bounded message count at every step.")
}
