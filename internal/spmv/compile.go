package spmv

import (
	"fmt"
	"sort"
	"time"

	"stfw/internal/core"
	"stfw/internal/partition"
	"stfw/internal/sparse"
)

// PhaseTimings accumulates the wall time a session spent in each phase of
// its multiplies, so regressions are attributable to gather, exchange, or
// compute.
type PhaseTimings struct {
	// Gather is the time spent copying the referenced owned x entries into
	// the local vector.
	Gather time.Duration
	// Exchange is the communication phase: the compiled replay, BL or STFW.
	Exchange time.Duration
	// Kernel is the local multiply.
	Kernel time.Duration
	// Iters is the number of multiplies accumulated.
	Iters int
}

// program is one rank's compiled SpMV iteration: the owned CSR rows with
// column indices remapped to positions in a contiguous local vector laid
// out as [own-gather | halo], plus the compiled exchange that scatters
// delivered halo values straight into that vector's tail. Once built, an
// iteration touches no maps and allocates nothing.
//
// The rows are stored in kernel order: grouped by nonzero count, ascending
// row id within a group, so the kernel walks runs of equal-length rows with
// a fixed inner trip count instead of one that changes every row.
type program struct {
	rows []int32   // global ids of owned rows in kernel order
	runs []lenRun  // consecutive groups of rows, widths strictly increasing
	ci   []int32   // local column positions into xloc, rows in kernel order, CSR order within a row
	v    []float64 // values, laid out like ci

	// gatherIdx lists the referenced owned columns, ascending; iteration i
	// of the gather phase sets xloc[i] = x[gatherIdx[i]].
	gatherIdx []int32
	nOwn      int
	haloWords int
	xloc      []float64 // [own-gather | halo], halo tail filled by the replay
	y         []float64 // reusable result vector, only owned entries written

	replay *core.Replay // the compiled exchange, bound by NewSession
}

// lenRun is n consecutive kernel-order rows of w nonzeros each.
type lenRun struct{ n, w int32 }

// kernel writes y over the owned rows from xloc. It is a function of its own
// so that its inner loop's code alignment does not move with edits to the
// exchange code around it in MultiplySum (EXPERIMENTS "Computed layouts").
func (p *program) kernel() {
	// Rows are independent and each sums in CSR order, so walking them by
	// length run keeps every y entry bit-identical to the serial product.
	xloc, y, rows := p.xloc, p.y, p.rows
	r, k := 0, 0
	for _, run := range p.runs {
		w := int(run.w)
		for end := r + int(run.n); r < end; r++ {
			ci := p.ci[k : k+w]
			v := p.v[k : k+w]
			var sum float64
			for j, c := range ci {
				sum += v[j] * xloc[c]
			}
			y[rows[r]] = sum
			k += w
		}
	}
}

// compileProgram remaps the owned rows of a onto the [own | halo] local
// vector layout. The halo tail is ordered exactly like the compiled
// exchange's deliveries — source ranks ascending, each source's columns in
// RecvIdx order — so the replay can scatter into it directly. The rows are
// grouped by length with a stable counting sort (O(rows + max degree)).
func compileProgram(me int, a *sparse.CSR, part *partition.Partition, pat *Pattern, ownRows []int) (*program, error) {
	p := &program{}

	// pos maps a global column to its xloc position; -1 unused, -2 marks a
	// referenced owned column awaiting its ascending position.
	pos := make([]int32, a.Cols)
	for j := range pos {
		pos[j] = -1
	}
	nnz, maxDeg := 0, 0
	for _, i := range ownRows {
		cols, _ := a.Row(i)
		nnz += len(cols)
		maxDeg = max(maxDeg, len(cols))
		for _, j := range cols {
			if int(part.Part[j]) == me {
				pos[j] = -2
			}
		}
	}
	for j := 0; j < a.Cols; j++ {
		if pos[j] == -2 {
			pos[j] = int32(len(p.gatherIdx))
			p.gatherIdx = append(p.gatherIdx, int32(j))
		}
	}
	p.nOwn = len(p.gatherIdx)

	srcs := make([]int, 0, len(pat.RecvIdx[me]))
	for src := range pat.RecvIdx[me] {
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)
	at := int32(p.nOwn)
	for _, src := range srcs {
		for _, j := range pat.RecvIdx[me][src] {
			if pos[j] != -1 {
				return nil, fmt.Errorf("spmv: rank %d: halo column %d from %d conflicts with local layout", me, j, src)
			}
			pos[j] = at
			at++
		}
	}
	p.haloWords = int(at) - p.nOwn

	// next[w] counts the rows of w nonzeros, then becomes the kernel
	// position of the next such row; ownRows is ascending, so each run is.
	next := make([]int32, maxDeg+1)
	for _, i := range ownRows {
		next[a.RowDegree(i)]++
	}
	var start int32
	for w, n := range next {
		if n > 0 {
			p.runs = append(p.runs, lenRun{n: n, w: int32(w)})
		}
		next[w] = start
		start += n
	}
	p.rows = make([]int32, len(ownRows))
	for _, i := range ownRows {
		w := a.RowDegree(i)
		p.rows[next[w]] = int32(i)
		next[w]++
	}

	p.ci = make([]int32, 0, nnz)
	p.v = make([]float64, 0, nnz)
	for _, i := range p.rows {
		cols, vals := a.Row(int(i))
		for k, j := range cols {
			lp := pos[j]
			if lp < 0 {
				return nil, fmt.Errorf("spmv: rank %d: column %d of row %d is neither owned nor in the halo pattern", me, j, i)
			}
			p.ci = append(p.ci, lp)
			p.v = append(p.v, vals[k])
		}
	}
	p.xloc = make([]float64, at)
	p.y = make([]float64, a.Rows)
	return p, nil
}
