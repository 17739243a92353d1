// Package spmv implements the paper's evaluation kernel: row-parallel
// sparse matrix-vector multiplication with a communication phase followed
// by a computation phase. Rows (and conformally the x and y vectors) are
// distributed by a partition; before the local multiply, the owner of x[j]
// sends it to every process that has a nonzero in column j. The resulting
// point-to-point pattern — irregular and latency-bound for matrices with
// dense rows — is exactly the workload STFW regularizes.
package spmv

import (
	"fmt"
	"slices"

	"stfw/internal/core"
	"stfw/internal/partition"
	"stfw/internal/sparse"
	"stfw/internal/telemetry"
	"stfw/internal/vpt"
)

// Pattern is the communication requirement of one distributed SpMV: which x
// entries every rank must ship to every other rank.
type Pattern struct {
	K int
	// SendIdx[src][dst] lists the global column indices whose x values src
	// sends to dst, sorted increasing. Entries absent = no message.
	SendIdx []map[int][]int32
	// RecvIdx[dst][src] mirrors SendIdx from the receiver's side.
	RecvIdx []map[int][]int32
	// NNZ[p] is the local nonzero count of rank p (its multiply work).
	NNZ []int64
}

// BuildPattern derives the communication pattern of A under part. A must be
// square (row-parallel SpMV with conformal vector distribution).
func BuildPattern(a *sparse.CSR, part *partition.Partition) (*Pattern, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("spmv: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if err := part.Validate(a.Rows); err != nil {
		return nil, err
	}
	K := part.K
	p := &Pattern{
		K:       K,
		SendIdx: make([]map[int][]int32, K),
		RecvIdx: make([]map[int][]int32, K),
		NNZ:     make([]int64, K),
	}
	for i := range p.SendIdx {
		p.SendIdx[i] = map[int][]int32{}
		p.RecvIdx[i] = map[int][]int32{}
	}
	// Column j (owned by part[j]) must reach every part with a nonzero in
	// column j. Walk each part's rows once; mark[j] is one more than the
	// last part that asked for column j (0: none yet), so each (column,
	// part) pair is recorded once.
	mark := make([]int32, a.Cols)
	for q, rows := range part.PartRows() {
		tag := int32(q) + 1
		for _, i := range rows {
			cols, _ := a.Row(i)
			p.NNZ[q] += int64(len(cols))
			for _, j := range cols {
				if mark[j] == tag {
					continue
				}
				mark[j] = tag
				if owner := int(part.Part[j]); owner != q {
					p.SendIdx[owner][q] = append(p.SendIdx[owner][q], j)
				}
			}
		}
	}
	for owner, lists := range p.SendIdx {
		for q, lst := range lists {
			slices.Sort(lst)
			p.RecvIdx[q][owner] = slices.Clone(lst)
		}
	}
	return p, nil
}

// SendSets converts the pattern into the core representation (message sizes
// in 8-byte words: one word per x entry).
func (p *Pattern) SendSets() (*core.SendSets, error) {
	s := core.NewSendSets(p.K)
	for src := 0; src < p.K; src++ {
		for dst, lst := range p.SendIdx[src] {
			s.Add(src, dst, int64(len(lst)))
		}
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return s, nil
}

// Method selects the communication scheme of the exchange phase.
type Method int

const (
	// BL is the paper's baseline: direct point-to-point messages.
	BL Method = iota
	// STFW routes messages through the virtual process topology.
	STFW
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case BL:
		return "BL"
	case STFW:
		return "STFW"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a parallel SpMV run.
type Options struct {
	Method Method
	// Topo is the VPT used when Method == STFW; ignored for BL.
	Topo *vpt.Topology
	// Telemetry, when set, attaches each rank's session to the registry's
	// live collector: the exchange counts forwards on every multiply, and a
	// multiply whose exchange the collector traces (one in
	// telemetry.SampleEvery) records its gather/exchange/kernel phase spans
	// beside the exchange's stage spans. The hooks
	// are allocation-free, so the zero-alloc steady state holds with
	// telemetry enabled. Frame-level send/recv counters additionally
	// require wrapping the communicators (telemetry.Registry.WrapComm).
	Telemetry *telemetry.Registry
}

// Reduce merges per-rank y vectors (each with only its owned entries set)
// into the full result.
func Reduce(part *partition.Partition, ys [][]float64) ([]float64, error) {
	if len(ys) != part.K {
		return nil, fmt.Errorf("spmv: %d partial vectors for K=%d", len(ys), part.K)
	}
	n := len(part.Part)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = ys[part.Part[i]][i]
	}
	return out, nil
}
